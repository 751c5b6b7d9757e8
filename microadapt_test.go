package microadapt_test

import (
	"strings"
	"testing"

	"microadapt"
)

func TestFacadeQuickstart(t *testing.T) {
	sess := microadapt.NewSession(
		microadapt.AllFlavors(),
		microadapt.Machine1(),
		microadapt.WithVectorSize(64),
		microadapt.WithSeed(1),
	)
	db := microadapt.GenerateTPCH(0.002, 1)
	tab, err := microadapt.RunQuery(db, sess, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 1 {
		t.Fatalf("Q6 rows = %d", tab.Rows())
	}
	out := microadapt.FormatTable(tab, 5)
	if !strings.Contains(out, "revenue") {
		t.Errorf("formatted output: %q", out)
	}
	if sess.Ctx.PrimCycles <= 0 {
		t.Error("no primitive cycles recorded")
	}
	if len(sess.Instances()) == 0 {
		t.Error("no instances created")
	}
}

// TestFacadeParallelSession: the facade's chooser factories must compose
// with WithParallelism — fragment choosers run on concurrent goroutines, so
// a factory sharing one rand across choosers would race (run with -race)
// — and parallel results must equal serial ones.
func TestFacadeParallelSession(t *testing.T) {
	db := microadapt.GenerateTPCH(0.005, 1)
	mk := func(p int) *microadapt.Session {
		return microadapt.NewSession(
			microadapt.AllFlavors(),
			microadapt.Machine1(),
			microadapt.WithVectorSize(64),
			microadapt.WithSeed(1),
			microadapt.WithChooser(microadapt.VWGreedyChooser(microadapt.DefaultVWParams(), 7)),
			microadapt.WithParallelism(p),
		)
	}
	serial, err := microadapt.RunQuery(db, mk(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := mk(4)
	parallel, err := microadapt.RunQuery(db, sess, 1)
	if err != nil {
		t.Fatal(err)
	}
	if microadapt.FormatTable(parallel, 0) != microadapt.FormatTable(serial, 0) {
		t.Error("parallel facade result differs from serial")
	}
	if len(sess.Fragments()) == 0 {
		t.Error("parallel session spawned no fragments")
	}
}

func TestFacadeChoosers(t *testing.T) {
	for _, factory := range []microadapt.ChooserFactory{
		microadapt.VWGreedyChooser(microadapt.DefaultVWParams(), 1),
		microadapt.HeuristicsChooser(microadapt.Machine1()),
		microadapt.FixedChooser(0),
	} {
		ch := factory(3)
		if ch == nil || ch.Name() == "" {
			t.Error("factory produced an invalid chooser")
		}
	}
}

func TestFacadeMachines(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []*microadapt.Machine{
		microadapt.Machine1(), microadapt.Machine2(), microadapt.Machine3(), microadapt.Machine4(),
	} {
		names[m.Name] = true
	}
	if len(names) != 4 {
		t.Error("four distinct machines expected")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := microadapt.ExperimentIDs()
	if len(ids) != 19 {
		t.Errorf("experiment ids = %d, want 19", len(ids))
	}
	cfg := microadapt.DefaultExperimentConfig()
	cfg.SF = 0.002
	rep, err := microadapt.RunExperiment(cfg, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig5" {
		t.Error("wrong report")
	}
	if _, err := microadapt.RunExperiment(cfg, "bogus"); err == nil {
		t.Error("bogus experiment should error")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Error("error should name the id")
	}
}

func TestFacadePolicyRegistry(t *testing.T) {
	names := microadapt.PolicyNames()
	if len(names) != len(microadapt.Policies()) {
		t.Error("PolicyNames and Policies disagree")
	}
	for _, want := range []string{"vw-greedy", "eps-greedy", "ucb1", "thompson", "fixed", "heuristics"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	// Every registered name resolves through PolicyChooser and produces
	// working choosers.
	for _, name := range names {
		f, err := microadapt.PolicyChooser(name, microadapt.Machine1(), 1)
		if err != nil {
			t.Fatalf("PolicyChooser(%s): %v", name, err)
		}
		ch := f(3)
		if ch == nil || ch.Name() == "" {
			t.Errorf("policy %s produced an invalid chooser", name)
		}
		if arm := ch.Choose(microadapt.ChooseContext{}); arm < 0 || arm >= 3 {
			t.Errorf("policy %s chose out-of-range arm %d", name, arm)
		}
	}
	// Parameterized specs and error reporting.
	if _, err := microadapt.PolicyChooser("vw-greedy:explore=256,exploit=8,len=2", microadapt.Machine1(), 1); err != nil {
		t.Errorf("parameterized spec rejected: %v", err)
	}
	if _, err := microadapt.PolicyChooser("nope", microadapt.Machine1(), 1); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := microadapt.PolicyChooser("ucb1:bogus=1", microadapt.Machine1(), 1); err == nil {
		t.Error("unknown parameter should error")
	}
}

func TestFacadeService(t *testing.T) {
	db := microadapt.GenerateTPCH(0.002, 3)
	cfg := microadapt.DefaultServiceConfig()
	cfg.Seed = 5
	svc := microadapt.NewService(db, cfg)
	var sum microadapt.JobStats
	for _, q := range []int{6, 12, 6, 12} {
		tab, st, err := svc.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Rows() == 0 || st.Query != q {
			t.Errorf("Q%02d: %d rows, stats for Q%02d", q, tab.Rows(), st.Query)
		}
		sum.AdaptiveCalls += st.AdaptiveCalls
	}
	if sum.AdaptiveCalls == 0 {
		t.Error("no adaptive calls measured")
	}
	if svc.Cache().Len() == 0 {
		t.Error("service cache should hold learned flavor knowledge")
	}
}

func TestFacadeRunAllQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short mode")
	}
	sess := microadapt.NewSession(microadapt.DefaultFlavors(), microadapt.Machine4(),
		microadapt.WithVectorSize(64), microadapt.WithSeed(2))
	db := microadapt.GenerateTPCH(0.002, 3)
	if err := microadapt.RunAllQueries(db, sess); err != nil {
		t.Fatal(err)
	}
}

// TestFacadePlanBuilder: the declarative plan layer is reachable through
// the facade — build a custom plan, explain it, run it serially and
// parallel with identical results.
func TestFacadePlanBuilder(t *testing.T) {
	db := microadapt.GenerateTPCH(0.005, 1)
	build := func() *microadapt.PlanBuilder {
		b := microadapt.NewPlan("facade")
		sel := b.Scan(db.Lineitem, "l_quantity", "l_extendedprice").
			Select(microadapt.PlanCmpVal(0, "<", 25))
		b.Root(sel.Agg(nil, microadapt.Agg(microadapt.AggSum, 1, "total")))
		return b
	}
	explain := build().Explain(4)
	if !strings.Contains(explain, "facade/sel0") || !strings.Contains(explain, "physical (out, P=4)") {
		t.Errorf("explain output incomplete:\n%s", explain)
	}
	var serial string
	for _, p := range []int{1, 4} {
		sess := microadapt.NewSession(microadapt.AllFlavors(), microadapt.Machine1(),
			microadapt.WithVectorSize(64), microadapt.WithSeed(2), microadapt.WithParallelism(p))
		b := build()
		tab, err := b.Bind(sess).Run(b.MainRoot())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		out := microadapt.FormatTable(tab, 0)
		if p == 1 {
			serial = out
		} else if out != serial {
			t.Error("parallel plan result differs from serial")
		}
	}
}

// TestFacadeExplainQuery: the 22 built-in queries explain through the
// facade with partition annotations at P>1.
func TestFacadeExplainQuery(t *testing.T) {
	db := microadapt.GenerateTPCH(0.005, 1)
	out := microadapt.ExplainQuery(db, 6, 4)
	if !strings.Contains(out, "morsel fragments") {
		t.Errorf("Q6 at P=4 shows no fan-out:\n%s", out)
	}
}
