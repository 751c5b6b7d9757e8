package core

import (
	"math"
	"math/rand"
)

// VWParams are the three tuning knobs of vw-greedy (§3.2). The algorithm
// assumes ExplorePeriod > ExploitPeriod and both are multiples of
// ExploreLength. In Vectorwise all three are powers of two so the phase
// tests compile to mask operations.
type VWParams struct {
	// ExplorePeriod: an exploration phase starts every this many calls.
	ExplorePeriod int
	// ExploitPeriod: between explorations, the best flavor is re-chosen
	// every this many calls (this is also how quickly deterioration of
	// the current best flavor is detected).
	ExploitPeriod int
	// ExploreLength: how many calls a randomly chosen exploration flavor
	// is kept.
	ExploreLength int
	// WarmupSkip: measurement windows ignore this many leading calls to
	// avoid charging instruction-cache misses to the flavor (the paper
	// uses 2).
	WarmupSkip int
	// InitialSweep: test every flavor once for ExploreLength calls at
	// query start — the extension the trace simulation of Table 5
	// prompted the authors to add.
	InitialSweep bool
}

// DefaultVWParams returns the parameters the trace study of Table 5 found
// best: (EXPLORE_PERIOD, EXPLOIT_PERIOD, EXPLORE_LENGTH) = (1024, 8, 2).
func DefaultVWParams() VWParams {
	return VWParams{ExplorePeriod: 1024, ExploitPeriod: 8, ExploreLength: 2, WarmupSkip: 2, InitialSweep: true}
}

// FilledWith returns the parameters with each unset (< 1) period/length
// field replaced by the corresponding field of def, leaving every field the
// caller did set untouched. WarmupSkip and InitialSweep pass through
// unconditionally: zero/false are meaningful values there, not "unset".
func (p VWParams) FilledWith(def VWParams) VWParams {
	if p.ExplorePeriod < 1 {
		p.ExplorePeriod = def.ExplorePeriod
	}
	if p.ExploitPeriod < 1 {
		p.ExploitPeriod = def.ExploitPeriod
	}
	if p.ExploreLength < 1 {
		p.ExploreLength = def.ExploreLength
	}
	return p
}

// DemoVWParams returns the parameters of the Figure 10 demonstration:
// (1024, 256, 32).
func DemoVWParams() VWParams {
	return VWParams{ExplorePeriod: 1024, ExploitPeriod: 256, ExploreLength: 32, WarmupSkip: 2, InitialSweep: true}
}

// VWGreedy is the vw-greedy algorithm of Listing 8: ε-greedy restructured
// for non-stationary rewards by (1) alternating exploration and
// exploitation in a deterministic pattern and (2) ranking flavors by the
// mean cost of their most recent measurement window only, instead of an
// all-history mean.
type VWGreedy struct {
	p   VWParams
	n   int
	rng *rand.Rand

	cur   int // flavor in use
	calls int // total calls observed

	// Cumulative profiling counters (classical Vectorwise profiling).
	totTuples int64
	totCycles float64

	// Measurement window state, mirroring Listing 8.
	calcStart   int
	calcEnd     int
	nextExplore int
	prevTuples  int64
	prevCycles  float64

	// Knowledge: last measured average cost per flavor. measured marks
	// arms with any knowledge (including seeded priors); live marks arms
	// this chooser measured itself after construction — the distinction
	// that keeps knowledge caches from re-ingesting their own priors.
	avgCost  []float64
	measured []bool
	live     []bool

	sweep []int // arms the initial sweep still has to visit
}

// NewVWGreedy builds a cold-start vw-greedy chooser over n flavors.
func NewVWGreedy(n int, p VWParams, rng *rand.Rand) *VWGreedy {
	if p.ExplorePeriod < 1 {
		p = DefaultVWParams()
	}
	if p.ExploitPeriod < 1 {
		p.ExploitPeriod = 1
	}
	if p.ExploreLength < 1 {
		p.ExploreLength = 1
	}
	if p.WarmupSkip < 0 {
		p.WarmupSkip = 0
	}
	v := &VWGreedy{
		p:        p,
		n:        n,
		rng:      rng,
		avgCost:  make([]float64, n),
		measured: make([]bool, n),
		live:     make([]bool, n),
	}
	for i := range v.avgCost {
		v.avgCost[i] = math.Inf(1)
	}
	v.plan()
	return v
}

// SeedPriors implements WarmStarter. priors[i] < +Inf marks arm i as
// already measured at that cost: the chooser starts on the cheapest known
// arm and the initial sweep visits only arms with no prior. A nil or
// all-Inf priors slice leaves the cold-start behavior unchanged. Priors are
// only a starting point: the first measurement window on an arm overwrites
// its prior, so a stale or wrong prior costs at most one exploit period
// (the same bound as flavor deterioration, §3.2). Like every WarmStarter
// in the registry, priors never displace knowledge the chooser measured
// itself, so a late call (after observations) fills unknown arms at most.
func (v *VWGreedy) SeedPriors(priors []float64) {
	for i := 0; i < v.n && i < len(priors); i++ {
		if usablePrior(priors[i]) && !v.live[i] {
			v.avgCost[i] = priors[i]
			v.measured[i] = true
		}
	}
	if v.calls == 0 {
		v.plan()
	}
}

// plan (re)derives the start-of-query schedule from current knowledge:
// begin on the best-known arm, sweep only the arms with no knowledge.
func (v *VWGreedy) plan() {
	v.cur = v.best()
	v.sweep = v.sweep[:0]
	if v.p.InitialSweep {
		for i := 0; i < v.n; i++ {
			if i != v.cur && !v.measured[i] {
				v.sweep = append(v.sweep, i)
			}
		}
	}
	v.nextExplore = v.p.ExplorePeriod
	v.calcStart = v.warmup()
	v.calcEnd = v.calcStart + v.p.ExploreLength
}

func (v *VWGreedy) warmup() int {
	w := v.p.WarmupSkip
	if w >= v.p.ExploreLength {
		w = v.p.ExploreLength - 1
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Name implements Chooser.
func (v *VWGreedy) Name() string { return "vw-greedy" }

// Snapshot implements Snapshotter: the most recent windowed average cost
// (cycles/tuple) of every arm, +Inf for arms never measured, plus the mask
// of arms this chooser measured itself after construction. Both slices are
// copies — they stay valid after the chooser moves on — and the costs are
// the exact shape SeedPriors accepts, so knowledge harvested from one
// session can seed the next.
func (v *VWGreedy) Snapshot() ([]float64, []bool) {
	costs := append([]float64(nil), v.avgCost...)
	live := append([]bool(nil), v.live...)
	return costs, live
}

// Choose implements Chooser: vw-greedy switches flavors only at phase
// boundaries, handled in Observe, so Choose just returns the current one.
func (v *VWGreedy) Choose(ChooseContext) int { return v.cur }

// Observe implements Chooser. It is a faithful port of the vw-greedy
// function of Listing 8, extended with the initial sweep.
func (v *VWGreedy) Observe(o Observation) {
	// Classical primitive profiling.
	v.totCycles += o.Cycles
	v.totTuples += int64(o.Tuples)
	v.calls++

	if v.calls == v.calcEnd {
		// Average cost of the flavor over the window just completed.
		dt := v.totTuples - v.prevTuples
		if dt > 0 {
			v.avgCost[v.cur] = (v.totCycles - v.prevCycles) / float64(dt)
			v.measured[v.cur] = true
			v.live[v.cur] = true
		}

		var phaseLen int
		switch {
		case len(v.sweep) > 0:
			// Initial exploration: test every flavor not yet known (all of
			// them on a cold start, only unseeded ones on a warm start).
			v.cur = v.sweep[0]
			v.sweep = v.sweep[1:]
			phaseLen = v.p.ExploreLength
		case v.calls > v.nextExplore:
			// Perform exploration.
			v.nextExplore += v.p.ExplorePeriod
			v.cur = v.rng.Intn(v.n)
			phaseLen = v.p.ExploreLength
		default:
			// Perform exploitation.
			v.cur = v.best()
			phaseLen = v.p.ExploitPeriod
		}

		// Ignore the first WarmupSkip calls of the new phase to avoid
		// measuring instruction-cache misses.
		v.calcStart = v.calls + v.warmup()
		v.calcEnd = v.calcStart + phaseLen
	}
	if v.calls == v.calcStart {
		v.prevTuples = v.totTuples
		v.prevCycles = v.totCycles
	}
}

// best returns the flavor with the lowest windowed average cost; arms that
// were never measured lose to any measured arm, and the current arm wins
// ties so the algorithm does not churn.
func (v *VWGreedy) best() int {
	best := v.cur
	bestCost := v.avgCost[v.cur]
	for i := 0; i < v.n; i++ {
		if v.avgCost[i] < bestCost {
			best, bestCost = i, v.avgCost[i]
		}
	}
	return best
}
