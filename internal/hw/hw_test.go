package hw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMachineProfiles(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("machines = %d, want 4", len(ms))
	}
	// Table 2 of the paper: LLC sizes 12MB, 4MB, 1MB, 8MB.
	wantLLC := []int{12 << 20, 4 << 20, 1 << 20, 8 << 20}
	wantVendor := []string{"Intel", "Intel", "AMD", "Intel"}
	for i, m := range ms {
		if m.LLCBytes != wantLLC[i] {
			t.Errorf("%s LLC = %d, want %d", m.Name, m.LLCBytes, wantLLC[i])
		}
		if m.Vendor != wantVendor[i] {
			t.Errorf("%s vendor = %s, want %s", m.Name, m.Vendor, wantVendor[i])
		}
		if m.OverlapFission <= m.OverlapSerial {
			t.Errorf("%s: fission overlap must exceed serial overlap", m.Name)
		}
	}
	if MachineByName("machine3").Arch != "Egypt" {
		t.Error("machine3 should be the AMD Egypt box")
	}
	if MachineByName("nope") != nil {
		t.Error("unknown machine should be nil")
	}
}

func TestSIMDLanesAndSpeed(t *testing.T) {
	m1 := Machine1()
	if m1.SIMDLanes(4) != 4 || m1.SIMDLanes(8) != 2 || m1.SIMDLanes(2) != 8 {
		t.Error("SSE lane counts wrong")
	}
	if m1.SIMDLanes(0) != 1 || m1.SIMDLanes(32) != 1 {
		t.Error("degenerate widths should clamp to 1 lane")
	}
	// The paper's Table 4: machine 1 SIMD wins for int32, machine 3 loses.
	if Machine1().SIMDSpeed(4) <= 1 {
		t.Error("machine1 int32 SIMD should be profitable")
	}
	if Machine3().SIMDSpeed(4) >= 1 {
		t.Error("machine3 int32 SIMD should be unprofitable (split SSE units)")
	}
	// Figure 8: 64-bit multiplication never benefits on machine 1.
	if Machine1().SIMDSpeed(8) >= 1 {
		t.Error("machine1 int64 SIMD should be unprofitable")
	}
	// Narrower types gain more (Figure 8's short vs int vs long).
	if Machine1().SIMDSpeed(2) <= Machine1().SIMDSpeed(4) {
		t.Error("i16 SIMD speed should exceed i32")
	}
}

func TestMissRatio(t *testing.T) {
	if MissRatio(1<<20, 2<<20) != 0 {
		t.Error("working set within cache must not miss")
	}
	if got := MissRatio(2<<20, 1<<20); got != 0.5 {
		t.Errorf("2x cache miss ratio = %v, want 0.5", got)
	}
	if got := MissRatio(4<<20, 1<<20); got != 0.75 {
		t.Errorf("4x cache miss ratio = %v, want 0.75", got)
	}
	if MissRatio(0, 1024) != 0 {
		t.Error("empty working set must not miss")
	}
}

func TestBranchPredictorLearnsConstantDirection(t *testing.T) {
	var p BranchPredictor
	misses := 0
	for i := 0; i < 100; i++ {
		if p.Record(true) {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("always-taken misses = %d, want <= 2 (warmup only)", misses)
	}
	p.Reset()
	misses = 0
	for i := 0; i < 100; i++ {
		if p.Record(false) {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("never-taken misses = %d, want 0 from not-taken bias", misses)
	}
}

func TestBranchPredictorAlternatingIsWorstCase(t *testing.T) {
	var p BranchPredictor
	misses := 0
	n := 1000
	for i := 0; i < n; i++ {
		if p.Record(i%2 == 0) {
			misses++
		}
	}
	if misses < n/3 {
		t.Errorf("alternating misses = %d, want high", misses)
	}
}

// TestBranchPredictorHump verifies the Figure 1 shape driver: random
// branches at 50%% selectivity mispredict far more than at 5%% or 95%%.
func TestBranchPredictorHump(t *testing.T) {
	rate := func(p float64) float64 {
		rng := rand.New(rand.NewSource(1))
		var bp BranchPredictor
		miss := 0
		n := 100000
		for i := 0; i < n; i++ {
			if bp.Record(rng.Float64() < p) {
				miss++
			}
		}
		return float64(miss) / float64(n)
	}
	lo, mid, hi := rate(0.05), rate(0.5), rate(0.95)
	if mid < 0.4 {
		t.Errorf("50%% selectivity miss rate = %v, want ~0.5", mid)
	}
	if lo > 0.15 || hi > 0.15 {
		t.Errorf("extreme selectivity miss rates = %v/%v, want small", lo, hi)
	}
	if mid <= lo || mid <= hi {
		t.Error("miss rate must peak at 50%")
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(1024, 64, 4) // 16 lines, 4 sets
	if miss := c.Access(0); !miss {
		t.Error("first access must miss")
	}
	if miss := c.Access(0); miss {
		t.Error("second access to same line must hit")
	}
	if miss := c.Access(63); miss {
		t.Error("same cache line must hit")
	}
	if miss := c.Access(64); !miss {
		t.Error("next line must miss")
	}
	if c.accesses != 4 || c.misses != 2 {
		t.Errorf("stats = %d/%d, want 4/2", c.accesses, c.misses)
	}
	c.Flush()
	if c.accesses != 0 {
		t.Error("flush must clear stats")
	}
	if !c.Access(0) {
		t.Error("post-flush access must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set, 2 ways.
	c := NewCache(128, 64, 2)
	c.Access(0)   // miss, cache {0}
	c.Access(64)  // miss, cache {64,0}
	c.Access(0)   // hit, order {0,64}
	c.Access(128) // miss, evicts 64
	if c.Access(0) {
		t.Error("0 should still be cached (was MRU)")
	}
	if !c.Access(64) {
		t.Error("64 should have been evicted (was LRU)")
	}
}

func TestCacheWorkingSetMissRates(t *testing.T) {
	c := NewCache(64<<10, 64, 8)
	rng := rand.New(rand.NewSource(2))
	// Working set half the cache: near-zero steady-state misses.
	for i := 0; i < 200000; i++ {
		c.Access(uint64(rng.Intn(32 << 10)))
	}
	c2 := NewCache(64<<10, 64, 8)
	for i := 0; i < 200000; i++ {
		c2.Access(uint64(rng.Intn(1 << 20))) // 16x cache
	}
	small := float64(c.misses) / float64(c.accesses)
	big := float64(c2.misses) / float64(c2.accesses)
	if small > 0.01 {
		t.Errorf("fitting working set miss rate = %v, want ~0", small)
	}
	if big < 0.5 {
		t.Errorf("16x working set miss rate = %v, want > 0.5", big)
	}
}

func TestCachePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCache(1024, 60, 4) }, // non-power-of-two line
		func() { NewCache(1024, 64, 0) }, // zero associativity
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCodegenProfiles(t *testing.T) {
	gcc, icc, clang := GCC(), ICC(), Clang()
	m1, m3 := Machine1(), Machine3()
	// Figure 5: gcc mergejoin much slower on Intel; icc slower than clang
	// on AMD.
	if gcc.Mul(ClassMergeJoin, m1) < 1.5 {
		t.Error("gcc mergejoin on machine1 should be ~1.9x")
	}
	if icc.Mul(ClassMergeJoin, m3) <= clang.Mul(ClassMergeJoin, m3) {
		t.Error("icc mergejoin should lose to clang on the AMD machine")
	}
	if icc.Mul(ClassMergeJoin, m1) >= gcc.Mul(ClassMergeJoin, m1) {
		t.Error("icc mergejoin should beat gcc on machine1")
	}
	// Figure 4e: icc hash insert 2x slower.
	if icc.Mul(ClassHashInsert, m1) != 2.0 {
		t.Error("icc hash insert should be 2x")
	}
	// Unknown class defaults to 1.
	if gcc.Mul("nonexistent", m1) != 1.0 {
		t.Error("unknown class multiplier should be 1")
	}
	if CompilerByName("gcc") == nil || CompilerByName("nope") != nil {
		t.Error("CompilerByName lookup wrong")
	}
	if len(Compilers()) != 3 {
		t.Error("three compilers expected")
	}
}

func TestClangAggrDriftCrossesICC(t *testing.T) {
	clang, icc := Clang(), ICC()
	early := clang.DriftMul(ClassAggr, 0)
	late := clang.DriftMul(ClassAggr, 100000)
	iccMul := icc.Mul(ClassAggr, Machine4())
	if early <= iccMul {
		t.Errorf("clang aggr should start slower than icc (%v vs %v)", early, iccMul)
	}
	if late >= iccMul {
		t.Errorf("clang aggr should end faster than icc (%v vs %v)", late, iccMul)
	}
	// gcc has no drift.
	if GCC().DriftMul(ClassAggr, 500) != 1.0 {
		t.Error("gcc should have no aggr drift")
	}
}

func TestFetchDensitySplit(t *testing.T) {
	gcc, icc, clang := GCC(), ICC(), Clang()
	// Figure 4d: gcc best at one density regime, clang at the other, icc
	// never best.
	if gcc.FetchMul(0.9) >= clang.FetchMul(0.9) {
		t.Error("gcc should win dense fetches")
	}
	if clang.FetchMul(0.1) >= gcc.FetchMul(0.1) {
		t.Error("clang should win sparse fetches")
	}
	for _, d := range []float64{0.1, 0.9} {
		if icc.FetchMul(d) <= minF(gcc.FetchMul(d), clang.FetchMul(d)) {
			t.Errorf("icc should never be best at density %v", d)
		}
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func TestDriftMonotone(t *testing.T) {
	d := Drift{Start: 1.0, End: 0.7, Tau: 100}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return d.At(x) >= d.At(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := d.At(0); got != 1.0 {
		t.Errorf("At(0) = %v, want Start", got)
	}
	zero := Drift{}
	if zero.At(5) != 0 {
		t.Error("zero-Tau drift should return End")
	}
}
