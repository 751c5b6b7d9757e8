// Package hw models the hardware and compiler dimensions of primitive
// performance diversity described in the paper.
//
// The paper measures real CPU cycles on four physical machines (Table 2)
// built by three C compilers (Table 3). A Go reproduction has neither
// hardware cycle counters it can rely on deterministically, nor multiple
// compilers. Package hw therefore provides a *virtual cycle model*: machine
// profiles with explicit microarchitectural parameters (branch-miss penalty,
// memory latency, memory-level parallelism, cache capacities, SIMD lane
// efficiency) plus compiler "codegen" profiles, calibrated so the cost of a
// primitive call is a mechanistic function of the same data-dependent
// quantities that drive the effects in the paper: actual branch outcomes run
// through a simulated 2-bit predictor, actual working-set sizes run through
// a miss-ratio model or the set-associative cache simulator, selection
// density, data type width, and unrolling.
//
// Everything is deterministic: the same inputs produce the same cycle
// counts on any host, which makes the paper's figures reproducible exactly.
package hw

// Machine is a virtual machine profile. The four constructors correspond to
// Table 2 of the paper; their parameters are calibrated to reproduce the
// relations the paper reports (docs/ARCHITECTURE.md, paper-to-package map).
type Machine struct {
	Name   string
	Vendor string
	Arch   string

	// Cache hierarchy (bytes).
	L1Bytes   int
	L2Bytes   int
	LLCBytes  int
	CacheLine int
	RAMBytes  int64

	// BranchMissPenalty is the pipeline-flush cost in cycles of one
	// mispredicted branch.
	BranchMissPenalty float64

	// MemLat is the latency in cycles of a load that misses all caches.
	MemLat float64

	// OverlapSerial is the effective number of concurrent outstanding
	// cache misses achieved by a loop whose iterations form a dependency
	// chain (the no-fission bloom probe of Listing 5).
	OverlapSerial float64
	// OverlapFission is the effective number of concurrent outstanding
	// misses achieved by an independent-iteration loop (Listing 6). The
	// paper cites up to 5 in-flight iterations on Ivy Bridge.
	OverlapFission float64

	// BloomEffCache is the bloom-filter size at which probes begin to
	// miss the cache on this machine. The paper observes (Figure 6) that
	// the fission cross-over point does *not* trivially follow from the
	// LLC sizes of Table 2 (machine 1 crosses at 1MB despite a 12MB LLC),
	// so the model carries the observed value directly.
	BloomEffCache int

	// SIMD model: lanes = SIMDWidthBytes / typeWidth; a vectorized loop
	// retires PerLaneEff useful elements per cycle-equivalent per lane.
	// PerLaneEff < 1/lanes means auto-vectorization loses to scalar code,
	// as the paper observes on machine 3 (AMD Egypt, Table 4).
	SIMDWidthBytes int
	PerLaneEff     float64

	// Scalar loop shape parameters (cycles/tuple) used by the primitive
	// cost functions.
	LoopOverhead    float64 // per-iteration branch/induction overhead
	UnrollResidual  float64 // fraction of LoopOverhead left after unroll 8
	SelAccessFactor float64 // slowdown of gather via a selection vector
	CallOverhead    float64 // fixed cycles per primitive call (amortized)
	// ArithElem is the scalar cost of one 32-bit multiply-class ALU
	// operation including its load/store, calibrated from Table 4.
	ArithElem float64
}

// Machine1 is the Intel Nehalem box of Table 2 (12MB LLC, 48GB RAM).
func Machine1() *Machine {
	return &Machine{
		Name: "machine1", Vendor: "Intel", Arch: "Nehalem",
		L1Bytes: 32 << 10, L2Bytes: 256 << 10, LLCBytes: 12 << 20,
		CacheLine: 64, RAMBytes: 48 << 30,
		BranchMissPenalty: 17, MemLat: 200,
		OverlapSerial: 2.8, OverlapFission: 4.5,
		BloomEffCache:  512 << 10,
		SIMDWidthBytes: 16, PerLaneEff: 0.39,
		LoopOverhead: 1.0, UnrollResidual: 0.13,
		SelAccessFactor: 1.8, CallOverhead: 48,
		ArithElem: 1.60,
	}
}

// Machine2 is the Intel Core2 box of Table 2 (4MB LLC, 8GB RAM).
func Machine2() *Machine {
	return &Machine{
		Name: "machine2", Vendor: "Intel", Arch: "Core2",
		L1Bytes: 32 << 10, L2Bytes: 4 << 20, LLCBytes: 4 << 20,
		CacheLine: 64, RAMBytes: 8 << 30,
		BranchMissPenalty: 15, MemLat: 240,
		OverlapSerial: 1.2, OverlapFission: 2.8,
		BloomEffCache:  1 << 20,
		SIMDWidthBytes: 16, PerLaneEff: 0.155,
		LoopOverhead: 1.2, UnrollResidual: 0.15,
		SelAccessFactor: 1.9, CallOverhead: 56,
		ArithElem: 1.75,
	}
}

// Machine3 is the AMD Egypt (Opteron) box of Table 2 (1MB LLC, 64GB RAM).
// Its 128-bit SIMD ops are split into two 64-bit halves, so auto-vectorized
// code loses to unrolled scalar code (Table 4 of the paper).
func Machine3() *Machine {
	return &Machine{
		Name: "machine3", Vendor: "AMD", Arch: "Egypt",
		L1Bytes: 64 << 10, L2Bytes: 1 << 20, LLCBytes: 1 << 20,
		CacheLine: 64, RAMBytes: 64 << 30,
		BranchMissPenalty: 12, MemLat: 300,
		OverlapSerial: 1.0, OverlapFission: 3.2,
		BloomEffCache:  128 << 10,
		SIMDWidthBytes: 16, PerLaneEff: 0.155,
		LoopOverhead: 2.1, UnrollResidual: 0.06,
		SelAccessFactor: 1.7, CallOverhead: 64,
		ArithElem: 1.90,
	}
}

// Machine4 is the Intel Sandy Bridge box of Table 2 (8MB LLC, 16GB RAM).
func Machine4() *Machine {
	return &Machine{
		Name: "machine4", Vendor: "Intel", Arch: "Sandy Bridge",
		L1Bytes: 32 << 10, L2Bytes: 256 << 10, LLCBytes: 8 << 20,
		CacheLine: 64, RAMBytes: 16 << 30,
		BranchMissPenalty: 16, MemLat: 180,
		OverlapSerial: 2.2, OverlapFission: 5.0,
		BloomEffCache:  2 << 20,
		SIMDWidthBytes: 16, PerLaneEff: 0.42,
		LoopOverhead: 0.9, UnrollResidual: 0.12,
		SelAccessFactor: 1.8, CallOverhead: 44,
		ArithElem: 1.50,
	}
}

// ScaledCaches returns a copy of the machine with cache capacities scaled
// by f. The reproduction runs TPC-H at small scale factors; shrinking the
// caches proportionally keeps working-set-to-cache ratios (hash-table
// growth, bloom-filter residency) in the paper's regime. Capacities are
// floored so the model stays sane.
func (m *Machine) ScaledCaches(f float64) *Machine {
	if f >= 1 || f <= 0 {
		return m
	}
	c := *m
	scale := func(bytes int, floor int) int {
		v := int(float64(bytes) * f)
		if v < floor {
			v = floor
		}
		return v
	}
	c.L1Bytes = scale(m.L1Bytes, 1<<10)
	c.L2Bytes = scale(m.L2Bytes, 2<<10)
	c.LLCBytes = scale(m.LLCBytes, 16<<10)
	c.BloomEffCache = scale(m.BloomEffCache, 1<<10)
	return &c
}

// Machines returns the four test machines of Table 2, in order.
func Machines() []*Machine {
	return []*Machine{Machine1(), Machine2(), Machine3(), Machine4()}
}

// MachineByName returns the named machine profile, or nil.
func MachineByName(name string) *Machine {
	for _, m := range Machines() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// SIMDLanes returns how many elements of the given width fit one SIMD word.
func (m *Machine) SIMDLanes(typeWidth int) int {
	if typeWidth <= 0 {
		return 1
	}
	l := m.SIMDWidthBytes / typeWidth
	if l < 1 {
		l = 1
	}
	return l
}

// SIMDSpeed returns the throughput multiplier of an auto-vectorized loop
// over the scalar element cost for elements of the given width. Values
// below 1 mean vectorization hurts (machine 3).
func (m *Machine) SIMDSpeed(typeWidth int) float64 {
	return float64(m.SIMDLanes(typeWidth)) * m.PerLaneEff
}

// MissRatio is the analytic fraction of random accesses into a working set
// of wsBytes that miss a cache of effBytes: 0 while the working set fits,
// then 1-eff/ws (uniform random probes into a resident fraction eff/ws).
func MissRatio(wsBytes, effBytes int) float64 {
	if wsBytes <= 0 || wsBytes <= effBytes {
		return 0
	}
	return 1 - float64(effBytes)/float64(wsBytes)
}
