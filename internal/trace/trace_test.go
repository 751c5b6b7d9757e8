package trace

import (
	"math/rand"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
)

// fakeWorkload builds a session workload with two primitives whose flavor
// costs are controlled exactly.
func fakeDict(costs map[string][]float64) *core.Dictionary {
	d := core.NewDictionary()
	for sig, armCosts := range costs {
		for arm, cost := range armCosts {
			cost := cost
			d.AddFlavor(sig, hw.ClassMapArith, &core.Flavor{
				Name: sig + string(rune('a'+arm)),
				Fn: func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
					return c.N, cost * float64(c.N)
				},
			})
		}
	}
	return d
}

func TestRecordAndScores(t *testing.T) {
	costs := map[string][]float64{
		"p1": {5, 3}, // arm 1 best
		"p2": {2, 8}, // arm 0 best
	}
	mk := func(f core.ChooserFactory) *core.Session {
		return core.NewSession(fakeDict(costs), hw.Machine1(),
			core.WithVectorSize(10), core.WithChooser(f))
	}
	workload := func(s *core.Session) error {
		i1 := s.Instance("p1", "w/p1")
		i2 := s.Instance("p2", "w/p2")
		for call := 0; call < 50; call++ {
			i1.Run(s.Ctx, &core.Call{N: 10})
			i2.Run(s.Ctx, &core.Call{N: 10})
		}
		return nil
	}
	traces, err := Record(2, mk, workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.Calls() != 50 {
			t.Errorf("%s calls = %d, want 50", tr.Label, tr.Calls())
		}
	}
	// OPT picks the per-call best: p1 via arm1 (3), p2 via arm0 (2).
	var p1, p2 *InstanceTrace
	for _, tr := range traces {
		if tr.Label == "w/p1" {
			p1 = tr
		} else {
			p2 = tr
		}
	}
	if got := p1.OptCycles(); got != 3*10*50 {
		t.Errorf("p1 OPT = %v", got)
	}
	fixed := func(tr *InstanceTrace, arm int) float64 {
		var total float64
		for _, c := range tr.Cycles[arm] {
			total += c
		}
		return total
	}
	if got := fixed(p1, 0); got != 5*10*50 {
		t.Errorf("p1 fixed(0) = %v", got)
	}
	if got := p2.OptCycles(); got != 2*10*50 {
		t.Errorf("p2 OPT = %v", got)
	}

	// A perfect oracle-like chooser: fixed best arm per trace.
	best := func(tr *InstanceTrace) func(n int) core.Chooser {
		bestArm := 0
		if fixed(tr, 1) < fixed(tr, 0) {
			bestArm = 1
		}
		return func(n int) core.Chooser { return core.NewFixed(bestArm) }
	}
	if got := Simulate(p1, best(p1)); got != p1.OptCycles() {
		t.Errorf("simulate best = %v, want OPT", got)
	}

	// Scoring: the always-arm-0 policy is 5/3 off on p1, optimal on p2.
	s := Score(traces, func(n int) core.Chooser { return core.NewFixed(0) })
	wantAbs := (5.0*500 + 2.0*500) / (3.0*500 + 2.0*500)
	if diff := s.AbsoluteOverOPT - wantAbs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("absolute = %v, want %v", s.AbsoluteOverOPT, wantAbs)
	}
	wantRel := (5.0/3.0 + 1.0) / 2
	if diff := s.RelativeOverOPT - wantRel; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("relative = %v, want %v", s.RelativeOverOPT, wantRel)
	}
	if s.Average() <= 1 {
		t.Error("average must exceed 1 for a suboptimal policy")
	}
}

func TestVWGreedyNearOptimalOnStationaryTrace(t *testing.T) {
	costs := map[string][]float64{"p": {9, 4, 7}}
	mk := func(f core.ChooserFactory) *core.Session {
		return core.NewSession(fakeDict(costs), hw.Machine1(),
			core.WithVectorSize(100), core.WithChooser(f))
	}
	workload := func(s *core.Session) error {
		inst := s.Instance("p", "w/p")
		for call := 0; call < 4000; call++ {
			inst.Run(s.Ctx, &core.Call{N: 100})
		}
		return nil
	}
	traces, err := Record(3, mk, workload)
	if err != nil {
		t.Fatal(err)
	}
	score := Score(traces, func(n int) core.Chooser {
		return core.NewVWGreedy(n, core.VWParams{
			ExplorePeriod: 512, ExploitPeriod: 8, ExploreLength: 1,
			WarmupSkip: 2, InitialSweep: true,
		}, rand.New(rand.NewSource(1)))
	})
	if score.AbsoluteOverOPT > 1.05 {
		t.Errorf("vw-greedy on stationary trace = %v, want < 1.05", score.AbsoluteOverOPT)
	}
}

func TestRecordClampsMissingArms(t *testing.T) {
	// p1 has 3 flavors, p2 only 1: recording 3 arms must still produce a
	// complete matrix for p2 (filled from arm 0).
	d := core.NewDictionary()
	for arm := 0; arm < 3; arm++ {
		cost := float64(arm + 1)
		d.AddFlavor("p1", hw.ClassMapArith, &core.Flavor{
			Name: string(rune('a' + arm)),
			Fn: func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
				return c.N, cost * float64(c.N)
			},
		})
	}
	d.AddFlavor("p2", hw.ClassMapArith, &core.Flavor{
		Name: "only",
		Fn:   func(ctx *core.ExecCtx, c *core.Call) (int, float64) { return c.N, float64(c.N) },
	})
	mk := func(f core.ChooserFactory) *core.Session {
		return core.NewSession(d, hw.Machine1(), core.WithChooser(f))
	}
	workload := func(s *core.Session) error {
		for call := 0; call < 10; call++ {
			s.Instance("p1", "p1").Run(s.Ctx, &core.Call{N: 4})
			s.Instance("p2", "p2").Run(s.Ctx, &core.Call{N: 4})
		}
		return nil
	}
	traces, err := Record(3, mk, workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		for arm := 0; arm < 3; arm++ {
			if len(tr.Cycles[arm]) != tr.Calls() {
				t.Errorf("%s arm %d incomplete", tr.Label, arm)
			}
		}
	}
}
