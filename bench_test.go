package microadapt_test

import (
	"math/rand"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// Wall-clock micro-benchmarks of the real Go flavor implementations: on
// the host CPU, branching vs no-branching selection genuinely differ with
// selectivity (the Figure 1 effect, measured rather than modelled).

func wallClockSelection(b *testing.B, branching bool, selPct int) {
	d := primitive.NewDictionary(primitive.BranchSet())
	s := core.NewSession(d, hw.Machine1(), core.WithVectorSize(1024))
	inst := s.Instance("select_<_sint_col_sint_val", "wall")
	arm := 0
	if !branching {
		arm = 1
	}
	fl := inst.Prim.Flavors[arm]
	rng := rand.New(rand.NewSource(7))
	n := 1024
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(100))
	}
	out := make([]int32, n)
	threshold := vector.ConstI32(int32(selPct))
	call := &core.Call{N: n, In: []*vector.Vector{vector.FromI32(col), threshold}, SelOut: out, Inst: inst}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Fn(s.Ctx, call)
	}
}

func BenchmarkWallClockBranchingSel1(b *testing.B)    { wallClockSelection(b, true, 1) }
func BenchmarkWallClockBranchingSel50(b *testing.B)   { wallClockSelection(b, true, 50) }
func BenchmarkWallClockBranchingSel99(b *testing.B)   { wallClockSelection(b, true, 99) }
func BenchmarkWallClockNoBranchingSel1(b *testing.B)  { wallClockSelection(b, false, 1) }
func BenchmarkWallClockNoBranchingSel50(b *testing.B) { wallClockSelection(b, false, 50) }
func BenchmarkWallClockNoBranchingSel99(b *testing.B) { wallClockSelection(b, false, 99) }

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

func (sc abScenario) run(ch core.Chooser) float64 {
	var total float64
	for call := 0; call < sc.calls; call++ {
		arm := ch.Choose(core.ChooseContext{})
		c := sc.cost(arm, call)
		ch.Observe(core.Observation{Arm: arm, Tuples: 100, Cycles: c * 100})
		total += c
	}
	return total / (3 * float64(sc.calls)) // OPT = 3 per call
}

func ablation(b *testing.B, mk func() core.Chooser) {
	sc := abScenario{calls: 30000}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = sc.run(mk())
	}
	b.ReportMetric(ratio, "cost_over_opt")
}

func BenchmarkAblationVWGreedyFull(b *testing.B) {
	ablation(b, func() core.Chooser {
		return core.NewVWGreedy(2, core.DefaultVWParams(), rand.New(rand.NewSource(1)))
	})
}

// Recent-window mean (vw-greedy) vs all-history mean (eps-greedy): the
// windowed mean recovers after the scenario flips; the global mean lags.
func BenchmarkAblationGlobalMeanEpsGreedy(b *testing.B) {
	ablation(b, func() core.Chooser {
		return core.NewEpsGreedy(2, 0.01, rand.New(rand.NewSource(1)))
	})
}

// Deterministic explore/exploit pattern vs committing early (eps-first).
func BenchmarkAblationEpsFirstCommits(b *testing.B) {
	ablation(b, func() core.Chooser {
		return core.NewEpsFirst(2, 0.01, 30000, rand.New(rand.NewSource(1)))
	})
}

// Initial sweep off: cold starts rely on random exploration only.
func BenchmarkAblationNoInitialSweep(b *testing.B) {
	p := core.DefaultVWParams()
	p.InitialSweep = false
	ablation(b, func() core.Chooser {
		return core.NewVWGreedy(2, p, rand.New(rand.NewSource(1)))
	})
}

// Warmup skip off: measurement windows include the instruction-cache-miss
// calls the paper excludes.
func BenchmarkAblationNoWarmupSkip(b *testing.B) {
	p := core.DefaultVWParams()
	p.WarmupSkip = 0
	ablation(b, func() core.Chooser {
		return core.NewVWGreedy(2, p, rand.New(rand.NewSource(1)))
	})
}

// APH overhead: the cost of the 512-bucket history maintenance per call.
func BenchmarkAPHOverheadPerCall(b *testing.B) {
	d := core.NewDictionary()
	d.AddFlavor("p", hw.ClassMapArith, &core.Flavor{
		Name: "noop",
		Fn:   func(ctx *core.ExecCtx, c *core.Call) (int, float64) { return c.N, 1 },
	})
	s := core.NewSession(d, hw.Machine1())
	inst := s.Instance("p", "aph")
	call := &core.Call{N: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(s.Ctx, call)
	}
}
