package core

import (
	"fmt"
	"testing"

	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

func TestDecisionSigNamespace(t *testing.T) {
	sig := DecisionSig("join-strategy")
	if sig != "decision:join-strategy" {
		t.Errorf("DecisionSig = %q", sig)
	}
	if !IsDecisionSig(sig) {
		t.Error("IsDecisionSig should accept decision signatures")
	}
	if IsDecisionSig("sel_htlookup_slng_col") {
		t.Error("IsDecisionSig should reject primitive signatures")
	}
}

// pointKinds builds one adaptive point of each kind — a primitive instance
// and an operator decision — whose arm i costs costs[i] cycles per tuple,
// under chooser ch. step resolves one choice, records tuples at the chosen
// arm's cost and returns the arm.
var pointKinds = []struct {
	name string
	mk   func(costs []float64, ch Chooser) (p *Point, step func(tuples int) int)
}{
	{"instance", func(costs []float64, ch Chooser) (*Point, func(int) int) {
		d := NewDictionary()
		for i, c := range costs {
			d.AddFlavor("p", hw.ClassMapArith, testFlavor(fmt.Sprintf("f%d", i), int64(i), c))
		}
		s := NewSession(d, hw.Machine1(), WithChooser(func(int) Chooser { return ch }))
		inst := s.Instance("p", "L")
		res := vector.New(vector.I64, 1000)
		res.SetLen(1000)
		return &inst.Point, func(tuples int) int {
			inst.Run(s.Ctx, &Call{N: tuples, Res: res})
			return inst.LastArm
		}
	}},
	{"decision", func(costs []float64, ch Chooser) (*Point, func(int) int) {
		arms := make([]string, len(costs))
		for i := range arms {
			arms[i] = fmt.Sprintf("a%d", i)
		}
		d := NewDecision("k", "L", arms, ch)
		return &d.Point, func(tuples int) int {
			arm := d.Choose(Features{Valid: true, Selectivity: 0.5})
			d.Observe(tuples, costs[arm]*float64(tuples))
			return arm
		}
	}},
}

// TestDecisionChooseObserveProfile: both point kinds keep one profile —
// totals, per-arm figures, LastArm, the measured best arm and the
// adaptation ledger — under a round-robin policy over a cheap and a dear
// arm.
func TestDecisionChooseObserveProfile(t *testing.T) {
	for _, k := range pointKinds {
		t.Run(k.name, func(t *testing.T) {
			p, step := k.mk([]float64{1, 4}, NewRoundRobin(2))
			seen := map[int]bool{}
			for i := 0; i < 4; i++ {
				arm := step(1000)
				seen[arm] = true
				if arm != p.LastArm {
					t.Fatalf("chose %d but LastArm is %d", arm, p.LastArm)
				}
			}
			if !seen[0] || !seen[1] {
				t.Fatalf("round-robin visited arms %v, want both", seen)
			}
			if p.Calls != 4 || p.Tuples != 4000 || p.Cycles != 10000 {
				t.Errorf("Calls=%d Tuples=%d Cycles=%v, want 4, 4000 and 10000", p.Calls, p.Tuples, p.Cycles)
			}
			if p.PerArm[0].Calls != 2 || p.PerArm[1].CyclesPerTuple() != 4 || p.CyclesPerTuple() != 2.5 {
				t.Errorf("per-arm profile %+v, overall %v cycles/tuple", p.PerArm, p.CyclesPerTuple())
			}
			if got := p.BestMeasuredArm(); got != 0 {
				t.Errorf("BestMeasuredArm = %d, want 0", got)
			}
			if adaptive, offBest := p.AdaptationCost(); adaptive != 4 || offBest != 2 {
				t.Errorf("AdaptationCost = (%d, %d), want (4, 2)", adaptive, offBest)
			}
		})
	}
	if (ArmStats{}).CyclesPerTuple() != 0 {
		t.Error("empty arm stats cost should be 0")
	}
}

// TestDecisionClampsMisbehavingChooser: out-of-range arms fall back to arm
// 0 rather than crash the engine or the operator — this is what makes
// forcing arm N safe on points with fewer than N+1 arms (the anti-join
// strategy set has no bloomhash arm).
func TestDecisionClampsMisbehavingChooser(t *testing.T) {
	for _, k := range pointKinds {
		t.Run(k.name, func(t *testing.T) {
			p, step := k.mk([]float64{1, 2}, NewFixed(7))
			if arm := step(10); arm != 0 {
				t.Errorf("out-of-range choice resolved to arm %d, want clamped 0", arm)
			}
			if p.PerArm[0].Calls != 1 {
				t.Error("observation did not land on the clamped arm")
			}
		})
	}
}

// TestDecisionSingleArmShortCircuits: single-arm points never consult the
// policy and report no adaptation cost.
func TestDecisionSingleArmShortCircuits(t *testing.T) {
	for _, k := range pointKinds {
		t.Run(k.name, func(t *testing.T) {
			p, step := k.mk([]float64{1}, NewFixed(3))
			if arm := step(10); arm != 0 {
				t.Errorf("single-arm point chose %d", arm)
			}
			if adaptive, offBest := p.AdaptationCost(); adaptive != 0 || offBest != 0 {
				t.Errorf("single-arm point counted toward adaptation cost: (%d, %d)", adaptive, offBest)
			}
		})
	}
}

// branchDict registers a two-flavor selection-like primitive "sel".
func branchDict() *Dictionary {
	d := NewDictionary()
	d.AddFlavor("sel", hw.ClassMapArith, testFlavor("branch", 1, 3))
	d.AddFlavor("sel", hw.ClassMapArith, testFlavor("nobranch", 2, 2))
	return d
}

// TestInstanceKeyStability: the cache key must be identical across sessions
// for the same plan position and must not collide across labels or
// signatures.
func TestInstanceKeyStability(t *testing.T) {
	if Key("select_<_sint_col_sint_val", "Q12/sel#0") != "select_<_sint_col_sint_val@Q12/sel#0" {
		t.Error("key format changed — this breaks every populated knowledge cache")
	}
	if Key("a", "b") == Key("a", "c") {
		t.Error("labels must distinguish keys")
	}
	if Key("a", "b") == Key("c", "b") {
		t.Error("signatures must distinguish keys")
	}

	// Two independent sessions over equal dictionaries produce points with
	// equal keys for the same plan label.
	mk := func() *Session { return NewSession(branchDict(), hw.Machine1()) }
	if mk().Instance("sel", "Q06/shipdate#0").Key() != mk().Instance("sel", "Q06/shipdate#0").Key() {
		t.Error("instance keys differ across sessions")
	}
	d := mk().Decision("join-strategy", "Q3/hj1/strategy", []string{"hash", "merge"})
	if got := d.Key(); got != "decision:join-strategy@Q3/hj1/strategy" {
		t.Errorf("decision key = %q", got)
	}
}

// TestInstanceKeyCollapsesPartitions: the fragment points of every
// pipeline partition — and the serial plan's point — share one key, so P
// per-partition bandits aggregate knowledge under one cache entry.
func TestInstanceKeyCollapsesPartitions(t *testing.T) {
	d := branchDict()
	serial := NewSession(d, hw.Machine1())
	want := serial.Instance("sel", "Q06/sel#0").Key()
	wantDec := serial.Decision("ht-sizing", "Q06/hj0/sizing", []string{"snug", "norm"}).Key()
	parent := NewSession(d, hw.Machine1(), WithParallelism(2))
	for part := 0; part < 2; part++ {
		fs := parent.Fragment(part)
		inst := fs.Instance("sel", "Q06/sel#0")
		if inst.Label == "Q06/sel#0" {
			t.Fatalf("partition %d: label %q not partition-tagged", part, inst.Label)
		}
		if got := inst.Key(); got != want {
			t.Errorf("partition %d key %q, want serial key %q", part, got, want)
		}
		if got := fs.Decision("ht-sizing", "Q06/hj0/sizing", []string{"snug", "norm"}).Key(); got != wantDec {
			t.Errorf("partition %d decision key %q, want serial key %q", part, got, wantDec)
		}
	}
	if got := len(parent.AllPoints()); got != 4 {
		t.Errorf("AllPoints = %d, want 4 (2 fragments x instance + decision)", got)
	}
}

// TestFlavorNamesOrder: FlavorNames must follow arm order — it is the
// translation table between arm indices and name-keyed cached knowledge —
// and an instance's arms are exactly those names.
func TestFlavorNamesOrder(t *testing.T) {
	d := branchDict()
	if err := d.AddFlavor("sel", hw.ClassMapArith, testFlavor("branch", 9, 9)); err == nil {
		t.Fatal("duplicate flavor registered")
	}
	p := d.MustLookup("sel")
	names := p.FlavorNames()
	if len(names) != len(p.Flavors) {
		t.Fatalf("names = %d, flavors = %d", len(names), len(p.Flavors))
	}
	for i, f := range p.Flavors {
		if names[i] != f.Name {
			t.Errorf("names[%d] = %q, flavor = %q", i, names[i], f.Name)
		}
	}
	if len(names) != 2 || names[0] == names[1] {
		t.Errorf("flavor names = %v, want two distinct", names)
	}
	inst := NewSession(d, hw.Machine1()).Instance("sel", "x")
	if len(inst.Arms) != 2 || inst.Arms[0] != names[0] || inst.Arms[1] != names[1] {
		t.Errorf("instance arms = %v, want %v", inst.Arms, names)
	}
}
