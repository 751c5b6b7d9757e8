package hw

import "math"

// Primitive cost classes. Codegen multipliers and flavor sets are keyed by
// class rather than by individual signature; the paper's observations are
// also per class (selection comparisons, map arithmetic, merge join, ...).
const (
	ClassSelCmp     = "sel_cmp"
	ClassMapArith   = "map_arith"
	ClassFetch      = "fetch"
	ClassAggr       = "aggr"
	ClassMergeJoin  = "mergejoin"
	ClassHash       = "hash"
	ClassHashInsert = "hash_insert"
	ClassBloom      = "bloom"
	ClassDecompress = "decompress"
)

// Drift models a codegen efficiency multiplier that changes as a primitive
// instance executes, decaying exponentially from Start to End with
// time-constant Tau calls. It reproduces the mid-query compiler cross-overs
// of Figure 4(b): the paper observes them but does not explain them, so the
// model carries them as calibrated behaviour rather than mechanism.
type Drift struct {
	Start, End float64
	Tau        float64 // calls
}

// At returns the multiplier after the given number of calls.
func (d Drift) At(calls int) float64 {
	if d.Tau <= 0 {
		return d.End
	}
	return d.End + (d.Start-d.End)*math.Exp(-float64(calls)/d.Tau)
}

// Codegen is a compiler profile: the efficiency of the code one compiler
// generates for each primitive class on each machine, relative to the
// reference (gcc = 1.0 unless the paper reports otherwise). It replaces real
// gcc/icc/clang builds (Table 3) so every run is deterministic and portable.
type Codegen struct {
	Name string

	// classMul maps class -> machine name -> multiplier. Missing entries
	// default to the class default ("" machine key), then to 1.0.
	classMul map[string]map[string]float64

	// drift maps class -> Drift for instance-age-dependent efficiency.
	drift map[string]Drift

	// Fetch primitives show density-split behaviour (Figure 4d): one of
	// gcc/clang is best above 50% selection density, the other below,
	// with icc in the middle. FetchHiMul applies at density >= 0.5,
	// FetchLoMul below.
	FetchHiMul float64
	FetchLoMul float64

	// AutoVectorize reports whether this compiler's flags enable SIMD
	// auto-vectorization of dense loops (all of Table 3 do).
	AutoVectorize bool
	// AutoUnroll reports whether the flags enable compiler loop
	// unrolling (gcc -funroll-loops; icc -O5 does; clang -O3 does not).
	AutoUnroll bool
}

// Mul returns the efficiency multiplier of this compiler for the given
// class on the given machine (higher = slower code).
func (cg *Codegen) Mul(class string, m *Machine) float64 {
	mm, ok := cg.classMul[class]
	if !ok {
		return 1.0
	}
	if v, ok := mm[m.Name]; ok {
		return v
	}
	if v, ok := mm[""]; ok {
		return v
	}
	return 1.0
}

// DriftMul returns the instance-age-dependent multiplier for the class, or
// 1.0 when the class has no drift for this compiler.
func (cg *Codegen) DriftMul(class string, calls int) float64 {
	d, ok := cg.drift[class]
	if !ok {
		return 1.0
	}
	return d.At(calls)
}

// FetchMul returns the density-dependent fetch multiplier.
func (cg *Codegen) FetchMul(density float64) float64 {
	if density >= 0.5 {
		return cg.FetchHiMul
	}
	return cg.FetchLoMul
}

// GCC is the gcc 4.6.2 profile (Table 3 flags): the reference compiler.
// Per Figure 4(c)/Figure 5 its merge-join code is ~90% slower on the Intel
// machines.
func GCC() *Codegen {
	return &Codegen{
		Name: "gcc",
		classMul: map[string]map[string]float64{
			ClassMergeJoin: {"machine1": 1.90, "machine2": 1.60, "machine3": 1.50, "machine4": 1.90},
			ClassAggr:      {"": 1.0},
		},
		drift:      map[string]Drift{},
		FetchHiMul: 1.0, FetchLoMul: 1.30,
		AutoVectorize: true, AutoUnroll: true,
	}
}

// ICC is the icc 11.0 profile. Fastest merge joins on Intel but much slower
// on the AMD machine (Figure 5); 2x slower string hash inserts (Figure 4e);
// ~30% slower short addition (Figure 4a); consistently best integer
// aggregation (Figure 4b).
func ICC() *Codegen {
	return &Codegen{
		Name: "icc",
		classMul: map[string]map[string]float64{
			ClassMergeJoin:  {"machine1": 1.00, "machine2": 1.10, "machine3": 1.60, "machine4": 1.00},
			ClassMapArith:   {"": 1.30},
			ClassAggr:       {"": 0.80},
			ClassHashInsert: {"": 2.00},
			ClassSelCmp:     {"": 1.05},
			ClassBloom:      {"": 0.95},
		},
		drift:      map[string]Drift{},
		FetchHiMul: 1.15, FetchLoMul: 1.15,
		AutoVectorize: true, AutoUnroll: true,
	}
}

// Clang is the clang 3.1 profile. Best merge join on the AMD machine
// (Figure 5); its aggregation code starts at gcc level and crosses over to
// beat icc mid-query (Figure 4b), modelled as Drift.
func Clang() *Codegen {
	return &Codegen{
		Name: "clang",
		classMul: map[string]map[string]float64{
			ClassMergeJoin: {"machine1": 1.10, "machine2": 1.00, "machine3": 1.00, "machine4": 1.05},
			ClassMapArith:  {"": 1.15},
			ClassSelCmp:    {"": 0.97},
		},
		drift: map[string]Drift{
			ClassAggr: {Start: 1.02, End: 0.70, Tau: 1200},
		},
		FetchHiMul: 1.30, FetchLoMul: 1.00,
		AutoVectorize: true, AutoUnroll: false,
	}
}

// Compilers returns the three compiler profiles of Table 3, gcc first
// (gcc is the default build).
func Compilers() []*Codegen { return []*Codegen{GCC(), ICC(), Clang()} }

// CompilerByName returns the named profile, or nil.
func CompilerByName(name string) *Codegen {
	for _, cg := range Compilers() {
		if cg.Name == name {
			return cg
		}
	}
	return nil
}
