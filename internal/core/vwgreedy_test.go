package core

import (
	"math"
	"math/rand"
	"testing"
)

// simulate feeds a cost function through a chooser and returns the arm
// sequence and mean achieved cost; costs[arm](call) gives cycles/tuple.
func simulate(ch Chooser, calls int, cost func(arm, call int) float64) (armUse []int, total float64) {
	nArms := 0
	switch c := ch.(type) {
	case *VWGreedy:
		nArms = c.n
	}
	_ = nArms
	armUse = make([]int, 16)
	for t := 0; t < calls; t++ {
		arm := ch.Choose(ChooseContext{})
		c := cost(arm, t)
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
		armUse[arm]++
		total += c
	}
	return armUse, total
}

func TestVWGreedyConvergesToBestArm(t *testing.T) {
	p := VWParams{ExplorePeriod: 64, ExploitPeriod: 8, ExploreLength: 4, WarmupSkip: 2, InitialSweep: true}
	ch := NewVWGreedy(3, p, rand.New(rand.NewSource(1)))
	use, _ := simulate(ch, 4096, func(arm, call int) float64 {
		return []float64{5, 3, 9}[arm] // arm 1 is always best
	})
	if use[1] < 3500 {
		t.Errorf("best arm used %d/4096 times, want dominant", use[1])
	}
}

// TestVWGreedyAdaptsToChange is the non-stationary scenario of Figure 10:
// the best arm changes mid-query and vw-greedy must switch.
func TestVWGreedyAdaptsToChange(t *testing.T) {
	p := VWParams{ExplorePeriod: 128, ExploitPeriod: 8, ExploreLength: 4, WarmupSkip: 2, InitialSweep: true}
	ch := NewVWGreedy(2, p, rand.New(rand.NewSource(2)))
	half := 4096
	costFn := func(arm, call int) float64 {
		if call < half {
			return []float64{3, 6}[arm]
		}
		return []float64{6, 3}[arm]
	}
	lateUse := make([]int, 2)
	for call := 0; call < 2*half; call++ {
		arm := ch.Choose(ChooseContext{})
		c := costFn(arm, call)
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
		if call >= half+512 { // allow switching time
			lateUse[arm]++
		}
	}
	if lateUse[1] < lateUse[0]*3 {
		t.Errorf("after the change arm1 should dominate: use = %v", lateUse)
	}
}

// TestVWGreedyDetectsDeteriorationFast mirrors the paper's observation on
// Figure 11(a): deterioration of the current best flavor is noticed within
// EXPLOIT_PERIOD calls, while discovering an improved alternative takes
// EXPLORE_PERIOD calls.
func TestVWGreedyDetectsDeteriorationFast(t *testing.T) {
	p := VWParams{ExplorePeriod: 1024, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 2, InitialSweep: true}
	ch := NewVWGreedy(2, p, rand.New(rand.NewSource(3)))
	// Warm up on arm 0 best.
	for call := 0; call < 512; call++ {
		arm := ch.Choose(ChooseContext{})
		c := []float64{2, 4}[arm]
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
	}
	if ch.cur != 0 {
		t.Fatalf("expected arm 0 before the change, got %d", ch.cur)
	}
	// Arm 0 deteriorates hard (the Figure 2 branching collapse).
	switched := -1
	for call := 0; call < 256; call++ {
		arm := ch.Choose(ChooseContext{})
		c := []float64{40, 4}[arm]
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
		if arm == 1 && switched < 0 {
			switched = call
		}
	}
	if switched < 0 {
		t.Fatal("never switched away from deteriorated flavor")
	}
	if switched > 4*p.ExploitPeriod+8 {
		t.Errorf("switch took %d calls, want within a few exploit periods", switched)
	}
}

func TestVWGreedyInitialSweepTriesAllArms(t *testing.T) {
	p := VWParams{ExplorePeriod: 1024, ExploitPeriod: 8, ExploreLength: 4, WarmupSkip: 2, InitialSweep: true}
	ch := NewVWGreedy(5, p, rand.New(rand.NewSource(4)))
	seen := make(map[int]bool)
	for call := 0; call < 5*(4+2)+8; call++ {
		arm := ch.Choose(ChooseContext{})
		seen[arm] = true
		ch.Observe(Observation{Arm: arm, Tuples: 10, Cycles: 10})
	}
	for a := 0; a < 5; a++ {
		if !seen[a] {
			t.Errorf("initial sweep never tried arm %d", a)
		}
	}
}

func TestVWGreedyNoSweepStartsExploiting(t *testing.T) {
	p := VWParams{ExplorePeriod: 64, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 0, InitialSweep: false}
	ch := NewVWGreedy(3, p, rand.New(rand.NewSource(5)))
	if ch.cur != 0 {
		t.Error("without a sweep the first arm should be 0")
	}
	use, _ := simulate(ch, 1024, func(arm, call int) float64 { return float64(arm + 1) })
	if use[0] < 700 {
		t.Errorf("arm 0 (best) used %d times, want dominant", use[0])
	}
}

func TestVWGreedyWindowedMeanIgnoresAncientHistory(t *testing.T) {
	// An arm that was terrible long ago but is good now must be picked:
	// vw-greedy ranks by the most recent window only.
	p := VWParams{ExplorePeriod: 32, ExploitPeriod: 8, ExploreLength: 4, WarmupSkip: 0, InitialSweep: true}
	vw := NewVWGreedy(2, p, rand.New(rand.NewSource(6)))
	eps := NewEpsGreedy(2, 0.05, rand.New(rand.NewSource(6)))
	cost := func(arm, call int) float64 {
		if call < 2000 {
			return []float64{2, 50}[arm] // arm 1 catastrophic early
		}
		return []float64{10, 1}[arm] // arm 1 great late
	}
	lateVW, lateEps := 0, 0
	for call := 0; call < 8000; call++ {
		a := vw.Choose(ChooseContext{})
		c := cost(a, call)
		vw.Observe(Observation{Arm: a, Tuples: 100, Cycles: c * 100})
		if call > 4000 && a == 1 {
			lateVW++
		}
		a = eps.Choose(ChooseContext{})
		c = cost(a, call)
		eps.Observe(Observation{Arm: a, Tuples: 100, Cycles: c * 100})
		if call > 4000 && a == 1 {
			lateEps++
		}
	}
	if lateVW < 3000 {
		t.Errorf("vw-greedy late arm1 use = %d/4000, want dominant", lateVW)
	}
	// The all-history mean of ε-greedy needs far longer to forgive arm 1;
	// this is the ablation argument for the windowed mean.
	if lateEps > lateVW {
		t.Errorf("eps-greedy (%d) should adapt slower than vw-greedy (%d)", lateEps, lateVW)
	}
}

func TestVWGreedyDefaultParams(t *testing.T) {
	p := DefaultVWParams()
	if p.ExplorePeriod != 1024 || p.ExploitPeriod != 8 || p.ExploreLength != 2 {
		t.Errorf("default params = %+v, want (1024,8,2)", p)
	}
	d := DemoVWParams()
	if d.ExplorePeriod != 1024 || d.ExploitPeriod != 256 || d.ExploreLength != 32 {
		t.Errorf("demo params = %+v, want (1024,256,32)", d)
	}
}

func TestVWGreedyAvgCostExposed(t *testing.T) {
	p := VWParams{ExplorePeriod: 16, ExploitPeriod: 4, ExploreLength: 4, WarmupSkip: 0, InitialSweep: true}
	ch := NewVWGreedy(2, p, rand.New(rand.NewSource(7)))
	if !math.IsInf(ch.avgCost[0], 1) {
		t.Error("unmeasured arm cost should be +Inf")
	}
	simulate(ch, 64, func(arm, call int) float64 { return float64(arm*2 + 3) })
	if ch.avgCost[0] <= 0 || math.IsInf(ch.avgCost[0], 1) {
		t.Error("arm 0 should have a measured cost")
	}
	if ch.Name() != "vw-greedy" {
		t.Error("name wrong")
	}
}

func TestVWGreedyWarmStartsAtBestPrior(t *testing.T) {
	p := VWParams{ExplorePeriod: 256, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 0, InitialSweep: true}
	ch := NewVWGreedy(3, p, rand.New(rand.NewSource(1)))
	ch.SeedPriors([]float64{5, 2, 9})
	if ch.cur != 1 {
		t.Fatalf("warm chooser starts at arm %d, want 1 (cheapest prior)", ch.cur)
	}
	// With all arms seeded there is nothing to sweep: the first exploit
	// window should stay on the known-best arm.
	use, _ := simulate(ch, 64, func(arm, call int) float64 {
		return []float64{5, 2, 9}[arm]
	})
	if use[1] < 56 {
		t.Errorf("seeded best arm used %d/64 times, want near-total", use[1])
	}
}

func TestVWGreedyWarmSweepsOnlyUnknownArms(t *testing.T) {
	p := VWParams{ExplorePeriod: 1 << 20, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 0, InitialSweep: true}
	ch := NewVWGreedy(4, p, rand.New(rand.NewSource(2)))
	ch.SeedPriors([]float64{3, math.Inf(1), 2, math.NaN()})
	if ch.cur != 2 {
		t.Fatalf("start arm = %d, want 2", ch.cur)
	}
	seen := make(map[int]bool)
	for call := 0; call < 64; call++ {
		arm := ch.Choose(ChooseContext{})
		seen[arm] = true
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: float64(arm+1) * 100})
	}
	// Unseeded arms 1 and 3 must still get their initial look...
	if !seen[1] || !seen[3] {
		t.Errorf("sweep skipped unknown arms: seen=%v", seen)
	}
	// ...but the seeded non-best arm 0 has a prior and needs no sweep
	// (with exploration pushed out of reach, visiting it means the sweep
	// re-tested known knowledge).
	if seen[0] {
		t.Errorf("sweep re-tested seeded arm 0: seen=%v", seen)
	}
	// The live mask distinguishes live measurements from seeded priors:
	// arm 0 was never run here, the start arm and swept arms were.
	if ch.live[0] {
		t.Error("seeded-but-unvisited arm must not count as session-measured")
	}
	for _, arm := range []int{1, 2, 3} {
		if !ch.live[arm] {
			t.Errorf("arm %d was measured this session", arm)
		}
	}
}

func TestVWGreedyWarmNilPriorsIsCold(t *testing.T) {
	p := VWParams{ExplorePeriod: 64, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 0, InitialSweep: true}
	warm := NewVWGreedy(3, p, rand.New(rand.NewSource(3)))
	warm.SeedPriors(nil)
	cold := NewVWGreedy(3, p, rand.New(rand.NewSource(3)))
	if warm.cur != cold.cur {
		t.Error("nil priors should behave exactly like a cold start")
	}
	for call := 0; call < 512; call++ {
		wa, ca := warm.Choose(ChooseContext{}), cold.Choose(ChooseContext{})
		if wa != ca {
			t.Fatalf("call %d: warm(nil) chose %d, cold chose %d", call, wa, ca)
		}
		warm.Observe(Observation{Arm: wa, Tuples: 100, Cycles: float64(wa+1) * 100})
		cold.Observe(Observation{Arm: ca, Tuples: 100, Cycles: float64(ca+1) * 100})
	}
}

func TestVWGreedySnapshotRoundTrip(t *testing.T) {
	p := VWParams{ExplorePeriod: 32, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 0, InitialSweep: true}
	ch := NewVWGreedy(3, p, rand.New(rand.NewSource(4)))
	simulate(ch, 256, func(arm, call int) float64 { return []float64{4, 2, 6}[arm] })
	snap, measured := ch.Snapshot()
	if len(snap) != 3 || len(measured) != 3 {
		t.Fatalf("snapshot len = %d/%d", len(snap), len(measured))
	}
	for a := 0; a < 3; a++ {
		if measured[a] != ch.live[a] {
			t.Errorf("snapshot mask[%d] = %v, live = %v", a, measured[a], ch.live[a])
		}
	}
	for a := 0; a < 3; a++ {
		if snap[a] != ch.avgCost[a] {
			t.Errorf("snapshot[%d] = %v, avgCost = %v", a, snap[a], ch.avgCost[a])
		}
	}
	// The snapshot is a copy: later observations must not mutate it.
	before := snap[0]
	simulate(ch, 64, func(arm, call int) float64 { return 50 })
	if snap[0] != before {
		t.Error("snapshot aliases live chooser state")
	}
	// Round trip: seeding a fresh chooser with the snapshot starts it on
	// the arm the first chooser found best.
	warm := NewVWGreedy(3, p, rand.New(rand.NewSource(5)))
	warm.SeedPriors(snap)
	if warm.cur != 1 {
		t.Errorf("round-tripped chooser starts at %d, want 1", warm.cur)
	}
}

func TestVWGreedyZeroTupleWindows(t *testing.T) {
	// Windows with zero tuples (empty selections) must not poison the
	// averages with NaN.
	p := VWParams{ExplorePeriod: 16, ExploitPeriod: 4, ExploreLength: 2, WarmupSkip: 0, InitialSweep: true}
	ch := NewVWGreedy(2, p, rand.New(rand.NewSource(8)))
	for call := 0; call < 256; call++ {
		arm := ch.Choose(ChooseContext{})
		ch.Observe(Observation{Arm: arm, Tuples: 0, Cycles: 50}) // only call overhead, no tuples
	}
	for a := 0; a < 2; a++ {
		if math.IsNaN(ch.avgCost[a]) {
			t.Errorf("arm %d cost is NaN", a)
		}
	}
}
