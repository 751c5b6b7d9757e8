package core

import (
	"math/rand"
	"testing"

	"microadapt/internal/hw"
)

// Ablation benchmarks for vw-greedy's design choices (Listing 8's windowed
// mean and explore/exploit pattern, plus the initial sweep and warmup
// skip). Each replays the same non-stationary two-arm scenario and
// reports achieved-cost/OPT as cost_over_opt (lower is better, 1.0 = OPT).

type abScenario struct {
	calls int
}

func (sc abScenario) cost(arm, call int) float64 {
	// Arm 0 best in the first and last third, arm 1 best in the middle.
	third := sc.calls / 3
	if call >= third && call < 2*third {
		return []float64{6, 3}[arm]
	}
	return []float64{3, 6}[arm]
}

func (sc abScenario) run(ch Chooser) float64 {
	var total float64
	for call := 0; call < sc.calls; call++ {
		arm := ch.Choose(ChooseContext{})
		c := sc.cost(arm, call)
		ch.Observe(Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
		total += c
	}
	return total / (3 * float64(sc.calls)) // OPT = 3 per call
}

func ablation(b *testing.B, mk func() Chooser) {
	sc := abScenario{calls: 30000}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = sc.run(mk())
	}
	b.ReportMetric(ratio, "cost_over_opt")
}

func BenchmarkAblationVWGreedyFull(b *testing.B) {
	ablation(b, func() Chooser {
		return NewVWGreedy(2, DefaultVWParams(), rand.New(rand.NewSource(1)))
	})
}

// Recent-window mean (vw-greedy) vs all-history mean (eps-greedy): the
// windowed mean recovers after the scenario flips; the global mean lags.
func BenchmarkAblationGlobalMeanEpsGreedy(b *testing.B) {
	ablation(b, func() Chooser {
		return NewEpsGreedy(2, 0.01, rand.New(rand.NewSource(1)))
	})
}

// Deterministic explore/exploit pattern vs committing early (eps-first).
func BenchmarkAblationEpsFirstCommits(b *testing.B) {
	ablation(b, func() Chooser {
		return NewEpsFirst(2, 0.01, 30000, rand.New(rand.NewSource(1)))
	})
}

// Initial sweep off: cold starts rely on random exploration only.
func BenchmarkAblationNoInitialSweep(b *testing.B) {
	p := DefaultVWParams()
	p.InitialSweep = false
	ablation(b, func() Chooser {
		return NewVWGreedy(2, p, rand.New(rand.NewSource(1)))
	})
}

// Warmup skip off: measurement windows include the instruction-cache-miss
// calls the paper excludes.
func BenchmarkAblationNoWarmupSkip(b *testing.B) {
	p := DefaultVWParams()
	p.WarmupSkip = 0
	ablation(b, func() Chooser {
		return NewVWGreedy(2, p, rand.New(rand.NewSource(1)))
	})
}

// APH overhead: the cost of the 512-bucket history maintenance per call.
func BenchmarkAPHOverheadPerCall(b *testing.B) {
	d := NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, &Flavor{
		Name: "noop",
		Fn:   func(ctx *ExecCtx, c *Call) (int, float64) { return c.N, 1 },
	})
	s := NewSession(d, hw.Machine1())
	inst := s.Instance("p", "aph")
	call := &Call{N: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(s.Ctx, call)
	}
}
