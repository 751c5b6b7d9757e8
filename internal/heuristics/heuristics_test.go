package heuristics

import (
	"slices"
	"testing"

	"microadapt/internal/bloom"
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
)

func testInstance(t *testing.T, o primitive.Options, sig string) (*core.Session, *core.Instance, *Selector) {
	t.Helper()
	d := primitive.NewDictionary(o)
	sel := &Selector{machine: hw.Machine1(), th: Default()}
	s := core.NewSession(d, hw.Machine1(),
		core.WithChooser(func(n int) core.Chooser { return sel }))
	inst := s.Instance(sig, "h/"+sig)
	return s, inst, sel
}

// armByTag is the first flavor of p whose tag key equals val, or -1.
func armByTag(p *core.Primitive, key, val string) int {
	return slices.IndexFunc(p.Flavors, func(f *core.Flavor) bool { return f.Tag(key) == val })
}

func TestSelectionRule(t *testing.T) {
	s, inst, sel := testInstance(t, primitive.BranchSet(), "select_<_sint_col_sint_val")
	prim := inst.Prim
	branchArm := armByTag(prim, "branch", "y")
	noBranchArm := armByTag(prim, "branch", "n")

	// Cold start: the shipped (branching) build.
	c := &core.Call{N: 100}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: c}); got != branchArm {
		t.Errorf("cold start arm = %d, want branching %d", got, branchArm)
	}
	// Mid selectivity observed: no-branching.
	inst.Tuples = 1000
	inst.Produced = 500
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: c}); got != noBranchArm {
		t.Error("50% selectivity should pick no-branching")
	}
	// Extreme selectivities: branching.
	inst.Produced = 20
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: c}); got != branchArm {
		t.Error("2% selectivity should pick branching")
	}
	inst.Produced = 990
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: c}); got != branchArm {
		t.Error("99% selectivity should pick branching")
	}
	_ = s
}

func TestFullComputationRule(t *testing.T) {
	_, inst, sel := testInstance(t, primitive.ComputeSet(), "map_*_slng_col_slng_col")
	prim := inst.Prim
	fullArm := armByTag(prim, "full", "y")
	selArm := armByTag(prim, "full", "n")

	dense := &core.Call{N: 100, Sel: mkSel(80)}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: dense}); got != fullArm {
		t.Error("80% density should pick full computation")
	}
	sparse := &core.Call{N: 100, Sel: mkSel(10)}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: sparse}); got != selArm {
		t.Error("10% density should pick selective computation")
	}
	noSel := &core.Call{N: 100}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: noSel}); got != selArm {
		t.Error("dense input (no sel) should stay on the default selective build")
	}
}

func mkSel(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestFissionRule(t *testing.T) {
	_, inst, sel := testInstance(t, primitive.FissionSet(), "sel_bloomfilter_slng_col")
	prim := inst.Prim
	fis := armByTag(prim, "fission", "y")
	nofis := armByTag(prim, "fission", "n")
	m := hw.Machine1()

	small := &core.Call{N: 100, Aux: bloom.New(m.BloomEffCache/4, 2)}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: small}); got != nofis {
		t.Error("cache-resident filter should not use fission")
	}
	big := &core.Call{N: 100, Aux: bloom.New(m.BloomEffCache*16, 2)}
	if got := sel.Choose(core.ChooseContext{Inst: inst, Call: big}); got != fis {
		t.Error("memory-resident filter should use fission")
	}
}

func TestNoHeuristicClassesUseDefault(t *testing.T) {
	_, inst, sel := testInstance(t, primitive.CompilerSet(), "mergejoin_slng_col_slng_col")
	c := &core.Call{N: 100}
	arm := sel.Choose(core.ChooseContext{Inst: inst, Call: c})
	if got := inst.Prim.Flavors[arm].Tag("compiler"); got != "gcc" {
		t.Errorf("default compiler = %s, want gcc", got)
	}
}

func TestDefaultArmPrefersShippedBuild(t *testing.T) {
	_, inst, sel := testInstance(t, primitive.Everything(), "select_<_sint_col_sint_val")
	c := &core.Call{N: 100}
	arm := sel.Choose(core.ChooseContext{Inst: inst, Call: c})
	f := inst.Prim.Flavors[arm]
	if f.Tag("compiler") != "gcc" || f.Tag("branch") != "y" || f.Tag("unroll") != "u8" {
		t.Errorf("shipped build = %s, want branching gcc u8", f.Name)
	}
}

func TestChooserInterfaceBasics(t *testing.T) {
	sel := &Selector{machine: hw.Machine1(), th: Default()}
	if sel.Name() != "heuristics" {
		t.Error("name wrong")
	}
	if sel.Choose(core.ChooseContext{}) != 0 {
		t.Error("context-free choice should be 0")
	}
	sel.Observe(core.Observation{Arm: 0, Tuples: 1, Cycles: 1}) // must not panic; heuristics do not learn
	f := Factory(hw.Machine1(), Default())
	if _, ok := f(3).(*Selector); !ok {
		t.Error("factory should build Selectors")
	}
}

func TestThresholdDefaults(t *testing.T) {
	th := Default()
	if th.NoBranchLo != 0.10 || th.NoBranchHi != 0.90 || th.FullCompSel != 0.30 {
		t.Errorf("defaults = %+v, want the paper's §4.2 thresholds", th)
	}
}
