package bench

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
)

// pinnedRuns runs workload once per arm, each run in its own session with
// every instance pinned to that arm (clamped to its last flavor) under a
// recording factory, the way pinnedSessions builds its pinned runs.
func pinnedRuns(nArms int, mk func(core.ChooserFactory) *core.Session, workload func(*core.Session)) []*core.Session {
	sessions := make([]*core.Session, nArms)
	for arm := range sessions {
		sessions[arm] = mk(recording(fixedArm(arm)))
		workload(sessions[arm])
	}
	return sessions
}

// fakeDict builds a dictionary whose flavor costs are controlled exactly:
// flavor arm of sig costs costs[sig][arm] cycles per tuple.
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

// fakeSessions builds sessions over fakeDict(costs) with vector size n.
func fakeSessions(costs map[string][]float64, n int) func(core.ChooserFactory) *core.Session {
	d := fakeDict(costs)
	return func(f core.ChooserFactory) *core.Session {
		return core.NewSession(d, hw.Machine1(), core.WithVectorSize(n), core.WithChooser(f))
	}
}

func TestRecordAndScores(t *testing.T) {
	mk := fakeSessions(map[string][]float64{
		"p1": {5, 3}, // arm 1 best
		"p2": {2, 8}, // arm 0 best
	}, 10)
	workload := func(s *core.Session) {
		i1 := s.Instance("p1", "w/p1")
		i2 := s.Instance("p2", "w/p2")
		for call := 0; call < 50; call++ {
			i1.Run(s.Ctx, &core.Call{N: 10})
			i2.Run(s.Ctx, &core.Call{N: 10})
		}
	}
	traces, err := collectTraces(pinnedRuns(2, mk, workload))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	for _, tr := range traces {
		if len(tr.tuples) != 50 {
			t.Errorf("%s calls = %d, want 50", tr.label, len(tr.tuples))
		}
	}
	// Traces come sorted by label; OPT picks the per-call best: p1 via
	// arm 1 (3), p2 via arm 0 (2).
	p1, p2 := traces[0], traces[1]
	if got := p1.optCycles(); got != 3*10*50 {
		t.Errorf("p1 OPT = %v", got)
	}
	fixed := func(tr *instanceTrace, arm int) float64 {
		var total float64
		for _, c := range tr.cycles[arm] {
			total += c
		}
		return total
	}
	if got := fixed(p1, 0); got != 5*10*50 {
		t.Errorf("p1 fixed(0) = %v", got)
	}
	if got := p2.optCycles(); got != 2*10*50 {
		t.Errorf("p2 OPT = %v", got)
	}

	// A perfect oracle-like chooser: fixed best arm per trace.
	best := func(tr *instanceTrace) func(n int) core.Chooser {
		bestArm := 0
		if fixed(tr, 1) < fixed(tr, 0) {
			bestArm = 1
		}
		return func(n int) core.Chooser { return core.NewFixed(bestArm) }
	}
	if got := simulate(p1, best(p1)); got != p1.optCycles() {
		t.Errorf("simulate best = %v, want OPT", got)
	}

	// Scoring: the always-arm-0 policy is 5/3 off on p1, optimal on p2.
	s := score("fixed", traces, func(n int) core.Chooser { return core.NewFixed(0) })
	if want := (5.0*500 + 2.0*500) / (3.0*500 + 2.0*500); math.Abs(s.absolute-want) > 1e-9 {
		t.Errorf("absolute = %v, want %v", s.absolute, want)
	}
	if want := (5.0/3.0 + 1.0) / 2; math.Abs(s.relative-want) > 1e-9 {
		t.Errorf("relative = %v, want %v", s.relative, want)
	}
	if s.average() <= 1 {
		t.Error("average must exceed 1 for a suboptimal policy")
	}
}

func TestVWGreedyNearOptimalOnStationaryTrace(t *testing.T) {
	mk := fakeSessions(map[string][]float64{"p": {9, 4, 7}}, 100)
	workload := func(s *core.Session) {
		inst := s.Instance("p", "w/p")
		for call := 0; call < 4000; call++ {
			inst.Run(s.Ctx, &core.Call{N: 100})
		}
	}
	traces, err := collectTraces(pinnedRuns(3, mk, workload))
	if err != nil {
		t.Fatal(err)
	}
	got := score("vw-greedy", traces, func(n int) core.Chooser {
		return core.NewVWGreedy(n, core.VWParams{
			ExplorePeriod: 512, ExploitPeriod: 8, ExploreLength: 1,
			WarmupSkip: 2, InitialSweep: true,
		}, rand.New(rand.NewSource(1)))
	})
	if got.absolute > 1.05 {
		t.Errorf("vw-greedy on stationary trace = %v, want < 1.05", got.absolute)
	}
}

// TestSingleFlavorInstanceYieldsNoTrace: an instance whose primitive has
// one flavor runs the same code in every pinned run, so its trace would
// hold identical columns that any algorithm matches to OPT, pulling every
// Table 5 score toward 1.0. Only multi-flavor instances are traced, and
// their columns are their pinned flavors (clamped to the last one).
func TestSingleFlavorInstanceYieldsNoTrace(t *testing.T) {
	mk := fakeSessions(map[string][]float64{"p1": {1, 2}, "p2": {1}}, 4)
	workload := func(s *core.Session) {
		for call := 0; call < 10; call++ {
			s.Instance("p1", "p1").Run(s.Ctx, &core.Call{N: 4})
			s.Instance("p2", "p2").Run(s.Ctx, &core.Call{N: 4})
		}
	}
	traces, err := collectTraces(pinnedRuns(3, mk, workload))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].label != "p1" {
		var labels []string
		for _, tr := range traces {
			labels = append(labels, tr.label)
		}
		t.Fatalf("traced %v, want only the two-flavor p1", labels)
	}
	for arm, cycles := range traces[0].cycles {
		if want := float64(4 * (min(arm, 1) + 1)); cycles[0] != want {
			t.Errorf("p1 arm %d cost %v, want %v", arm, cycles[0], want)
		}
	}
}

// TestCollectRejectsMissingInstance: pinned runs fix every decision, so a
// multi-flavor instance missing from one run, or running a different
// number of calls there, is a harness bug, not a column to fill in.
func TestCollectRejectsMissingInstance(t *testing.T) {
	mk := fakeSessions(map[string][]float64{"p1": {1, 2, 3}, "p3": {1, 2}}, 4)
	for _, tc := range []struct {
		name, want string
		arm0       func(s *core.Session) // extra work in arm 0's run only
	}{
		{"missing", "p3 has no calls in the run pinned to arm 1", func(s *core.Session) {
			s.Instance("p3", "p3").Run(s.Ctx, &core.Call{N: 4})
		}},
		{"fewer calls", "p1 ran 10 calls pinned to arm 1, 11 in an earlier run", func(s *core.Session) {
			s.Instance("p1", "p1").Run(s.Ctx, &core.Call{N: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			workload := func(s *core.Session) {
				for call := 0; call < 10; call++ {
					s.Instance("p1", "p1").Run(s.Ctx, &core.Call{N: 4})
				}
				if runs == 0 {
					tc.arm0(s)
				}
				runs++
			}
			traces, err := collectTraces(pinnedRuns(3, mk, workload))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("collectTraces = %d traces, err %v; want an error containing %q", len(traces), err, tc.want)
			}
		})
	}
}
