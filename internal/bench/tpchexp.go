package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"microadapt/internal/aph"
	"microadapt/internal/core"
	"microadapt/internal/heuristics"
	"microadapt/internal/primitive"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
	"microadapt/internal/trace"
)

// Fig2 reproduces Figure 2: the two (no-)branching flavors of the Q12
// receiptdate selection. The date-clustered lineitem keeps the predicate's
// selectivity near 100% for most of the query and drops it at the end,
// where the branching flavor collapses.
func Fig2(cfg Config) (*Report, error) {
	const label = "Q12/sel0/select_<_sint_col_sint_val#1" // l_receiptdate < 1995-01-01
	names := []string{"branching", "no branching"}
	sessions, err := cfg.pinnedSessions(cfg.DB(), primitive.BranchSet(), len(names), tpch.Query(12))
	if err != nil {
		return nil, err
	}
	var series []stats.Series
	var hists []*aph.History
	for arm, s := range sessions {
		inst := mustInstance(s, label)
		series = append(series, stats.Series{Name: names[arm], Values: inst.History().Series()})
		hists = append(hists, inst.History())
	}
	body := chartAPH("avg cycles/tuple during Q12 ("+label+")", series)
	bTot, nbTot := histCycles(hists[0]), histCycles(hists[1])
	body += fmt.Sprintf("\ntotal cycles: branching %.0f, no-branching %.0f; branching is faster for\n"+
		"most of the query but collapses when the selectivity drops at the end —\n"+
		"exactly the Figure 2 phenomenon that motivates intra-query adaptivity.\n", bTot, nbTot)
	return &Report{ID: "fig2", Title: "Figure 2: (No-)Branching primitive cost in TPC-H Q12", Body: body}, nil
}

func histCycles(h *aph.History) float64 {
	_, c := h.Totals()
	return c
}

// fig4Panels maps the five sub-figures of Figure 4 to our instances.
var fig4Panels = []struct {
	id, query, label, title string
}{
	{"a", "Q1", "Q1/proj0/map_-_slng_val_slng_col#0", "(a) Q1: Projection(map arithmetic)"},
	{"b", "Q1", "Q1/agg0/aggr_sum_slng_col#0", "(b) Q1: Aggregation(aggr_sum_slng_col)"},
	{"c", "Q7", "Q7/mj0/mergejoin_slng_col_slng_col#0", "(c) Q7: MergeJoin(mergejoin_slng_col_slng_col)"},
	{"d", "Q12", "Q12/mj0/map_fetch_uidx_col_str_col#R0", "(d) Q12: MergeJoin(map_fetch_uidx_col_str_col)"},
	{"e", "Q16", "Q16/agg0/hash_insertcheck_slng_col#0", "(e) Q16: Aggregation(hash_insertcheck_slng_col)"},
}

// Fig4 reproduces Figure 4: compiler-flavor APHs of five primitive
// instances across TPC-H queries, showing levels, reversals and mid-query
// cross-overs.
func Fig4(cfg Config) (*Report, error) {
	sessions, err := fig4Sessions(cfg)
	if err != nil {
		return nil, err
	}
	var body strings.Builder
	for _, panel := range fig4Panels {
		var series []stats.Series
		for arm, name := range fig4Compilers {
			inst := mustInstance(sessions[arm], panel.label)
			series = append(series, stats.Series{Name: name, Values: inst.History().Series()})
		}
		body.WriteString(chartAPH(panel.title, series))
		body.WriteString("\n")
	}
	body.WriteString("paper: no single best compiler even within one query — gcc wins (a),\n" +
		"icc wins (b) until clang crosses over, gcc is ~90% slower on (c), gcc and\n" +
		"clang alternate on (d), icc is 2x slower on (e).\n")
	return &Report{ID: "fig4", Title: "Figure 4: compiler differences (sample APHs, TPC-H)", Body: body.String()}, nil
}

// fig4Compilers names Figure 4's builds, in fixed-arm order.
var fig4Compilers = []string{"gcc", "icc", "clang"}

// fig4Sessions runs Figure 4's queries once per compiler build, each
// session pinned to that build's arm.
func fig4Sessions(cfg Config) ([]*core.Session, error) {
	// Figure 4 measures whole builds (one binary per compiler), so the
	// hash primitives carry compiler flavors here even though the
	// evaluator-level flavor sets of Tables 5/7 do not reach them.
	opts := primitive.CompilerSet()
	opts.FullCompilerCoverage = true
	return cfg.pinnedSessions(cfg.DB(), opts, len(fig4Compilers),
		tpch.Query(1), tpch.Query(7), tpch.Query(12), tpch.Query(16))
}

// flavorSetRun holds everything the Tables 6-10 / Figure 11 experiments
// need from one flavor-set study.
type flavorSetRun struct {
	armNames []string
	arms     []*core.Session
	adaptive *core.Session

	defaultAffected float64 // cycles in affected primitives, default arm
	totalDefault    float64 // all primitive cycles, default arm
	armAffected     []float64
	adaptAffected   float64
	optAffected     float64
}

// runFlavorSet executes the full TPC-H suite once per pinned arm and once
// adaptively, then computes the Table 6-10 aggregates. OPT is computed per
// instance from the per-arm APHs (minimum per aligned bucket), as §4.1
// describes.
func runFlavorSet(cfg Config, opts primitive.Options, armNames []string) (*flavorSetRun, error) {
	db := cfg.DB()
	arms, err := cfg.pinnedSessions(db, opts, len(armNames), tpch.Queries()...)
	if err != nil {
		return nil, err
	}
	r := &flavorSetRun{armNames: armNames, arms: arms}
	for arm, s := range arms {
		aff, tot := affectedCycles(s)
		r.armAffected = append(r.armAffected, aff)
		if arm == 0 {
			r.defaultAffected, r.totalDefault = aff, tot
		}
	}
	r.adaptive = cfg.TPCHSession(opts, nil)
	if err := RunTPCH(db, r.adaptive); err != nil {
		return nil, err
	}
	r.adaptAffected, _ = affectedCycles(r.adaptive)

	// OPT per affected instance across the pinned runs.
	for _, inst := range r.arms[0].Instances() {
		if len(inst.Prim.Flavors) <= 1 {
			continue
		}
		var hists []*aph.History
		for _, s := range r.arms {
			other := s.InstanceByLabel(inst.Label)
			if other == nil {
				hists = nil
				break
			}
			hists = append(hists, other.History())
		}
		if hists == nil {
			continue
		}
		r.optAffected += aph.OptCycles(hists...)
	}
	return r, nil
}

// report renders the Table 6-10 row layout: default cost (and workload
// share), then improvement factors for each alternative, Micro Adaptivity
// and OPT.
func (r *flavorSetRun) report() string {
	header := []string{fmt.Sprintf("Always %s", r.armNames[0])}
	row := []string{fmt.Sprintf("%s (%.2f%%)", fmtBillions(r.defaultAffected), 100*r.defaultAffected/r.totalDefault)}
	for i := 1; i < len(r.armNames); i++ {
		header = append(header, "Always "+r.armNames[i])
		row = append(row, fmtFactor(r.defaultAffected, r.armAffected[i]))
	}
	header = append(header, "Micro Adaptive", "OPT")
	row = append(row, fmtFactor(r.defaultAffected, r.adaptAffected), fmtFactor(r.defaultAffected, r.optAffected))
	return stats.FormatTable([][]string{header, row})
}

// fig11Panel renders one Figure 11 panel: the pinned flavor curves plus
// the adaptive curve of one instance.
func (r *flavorSetRun) fig11Panel(title, label string) string {
	var series []stats.Series
	for arm, s := range r.arms {
		inst := mustInstance(s, label)
		series = append(series, stats.Series{Name: r.armNames[arm], Values: inst.History().Series()})
	}
	inst := mustInstance(r.adaptive, label)
	series = append(series, stats.Series{Name: "micro adaptive", Values: inst.History().Series()})
	return chartAPH(title, series)
}

// flavorSetSpecs defines the five studies of §4.1.
var flavorSetSpecs = []struct {
	id       string
	title    string
	opts     func() primitive.Options
	armNames []string // one pinned arm per name, in arm order
}{
	{"table6", "Table 6: (No-)Branching flavors", primitive.BranchSet, []string{"Branching", "No-Branching"}},
	{"table7", "Table 7: Compiler flavors", primitive.CompilerSet, []string{"gcc", "icc", "clang"}},
	{"table8", "Table 8: Loop Fission flavors", primitive.FissionSet, []string{"Never Fission", "Always Fission"}},
	{"table9", "Table 9: Full Computation flavors", primitive.ComputeSet, []string{"Selective", "Full Computation"}},
	{"table10", "Table 10: Hand-Unrolling flavors", primitive.UnrollSet, []string{"unroll 8", "no unroll"}},
}

// flavorSetKey names one study run: its id and the whole configuration,
// the machine by name (cfg.Machine is cleared).
type flavorSetKey struct {
	id, machine string
	cfg         Config
}

// flavorSetCache shares the expensive runs between the table and figure
// experiments within one process.
var flavorSetCache = map[flavorSetKey]*flavorSetRun{}

func flavorSet(cfg Config, id string) (*flavorSetRun, string, error) {
	for _, spec := range flavorSetSpecs {
		if spec.id != id {
			continue
		}
		key := flavorSetKey{id: id, machine: cfg.Machine.Name, cfg: cfg}
		key.cfg.Machine = nil
		if r, ok := flavorSetCache[key]; ok {
			return r, spec.title, nil
		}
		r, err := runFlavorSet(cfg, spec.opts(), spec.armNames)
		if err != nil {
			return nil, "", err
		}
		flavorSetCache[key] = r
		return r, spec.title, nil
	}
	return nil, "", fmt.Errorf("bench: unknown flavor set %q", id)
}

// FlavorSetTable generates one of Tables 6-10.
func FlavorSetTable(cfg Config, id string) (*Report, error) {
	r, title, err := flavorSet(cfg, id)
	if err != nil {
		return nil, err
	}
	body := r.report()
	body += "\ncycles in affected primitives over the full TPC-H run (% of all primitive\n" +
		"cycles); columns are improvement factors over the default flavor.\n"
	return &Report{ID: id, Title: title, Body: body}, nil
}

// Fig11 reproduces Figure 11: adaptive APHs tracking the lower envelope of
// the flavor curves, one panel per flavor set.
func Fig11(cfg Config) (*Report, error) {
	panels := []struct {
		setID, title, label string
	}{
		{"table6", "(a) Q14: Selection(select_>=_sint_col_sint_val)", "Q14/sel0/select_>=_sint_col_sint_val#0"},
		{"table7", "(b) Q7: Selection(select_<=_sint_col_sint_val)", "Q7/sel1/select_<=_sint_col_sint_val#1"},
		{"table9", "(c) Q1: Project(map_*_slng_col_slng_col)", "Q1/proj0/map_*_slng_col_slng_col#1"},
		{"table8", "(d) Q21: HashJoin(sel_bloomfilter_slng_col)", "Q21/hj0/sel_bloomfilter_slng_col#0"},
		{"table10", "(e) Q7: Selection(select_>=_sint_col_sint_val)", "Q7/sel1/select_>=_sint_col_sint_val#0"},
	}
	var body strings.Builder
	for _, p := range panels {
		r, _, err := flavorSet(cfg, p.setID)
		if err != nil {
			return nil, err
		}
		body.WriteString(r.fig11Panel(p.title, p.label))
		body.WriteString("\n")
	}
	body.WriteString("micro adaptivity tracks the lower bound of the flavors, switching when\n" +
		"beneficial; detecting deterioration (EXPLOIT_PERIOD) is faster than\n" +
		"discovering improvement (EXPLORE_PERIOD), as the paper notes for (a).\n")
	return &Report{ID: "fig11", Title: "Figure 11: Micro Adaptive execution (sample APHs)", Body: body.String()}, nil
}

// Table5 reproduces the MAB-algorithm comparison: replay the per-call
// costs of the three compiler flavors, recorded by Table 7's pinned runs
// over the full TPC-H suite, through each algorithm and score against OPT.
func Table5(cfg Config) (*Report, error) {
	r, _, err := flavorSet(cfg, "table7")
	if err != nil {
		return nil, err
	}
	traces := trace.Collect(r.arms)
	var calls int
	for _, tr := range traces {
		calls += tr.Calls()
	}
	horizon := calls / len(traces)

	type algo struct {
		name string
		mk   func(n int) core.Chooser
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(cfg.Seed)) }
	vw := func(p, e, l int) algo {
		return algo{
			name: fmt.Sprintf("vw-greedy(%d,%d,%d)", p, e, l),
			mk: func(n int) core.Chooser {
				return core.NewVWGreedy(n, core.VWParams{
					ExplorePeriod: p, ExploitPeriod: e, ExploreLength: l,
					WarmupSkip: 2, InitialSweep: true,
				}, rng())
			},
		}
	}
	algos := []algo{
		vw(1024, 8, 2), vw(2048, 8, 1), vw(2048, 8, 2), vw(128, 8, 2), vw(256, 8, 2),
		{"eps-first(0.001)", func(n int) core.Chooser { return core.NewEpsFirst(n, 0.001, horizon, rng()) }},
		{"eps-first(0.05)", func(n int) core.Chooser { return core.NewEpsFirst(n, 0.05, horizon, rng()) }},
		{"eps-first(0.1)", func(n int) core.Chooser { return core.NewEpsFirst(n, 0.1, horizon, rng()) }},
		{"eps-greedy(0.001)", func(n int) core.Chooser { return core.NewEpsGreedy(n, 0.001, rng()) }},
		{"eps-greedy(0.05)", func(n int) core.Chooser { return core.NewEpsGreedy(n, 0.05, rng()) }},
		{"eps-greedy(0.1)", func(n int) core.Chooser { return core.NewEpsGreedy(n, 0.1, rng()) }},
		{"eps-decreasing(1.0)", func(n int) core.Chooser { return core.NewEpsDecreasing(n, 1.0, rng()) }},
		{"eps-decreasing(0.1)", func(n int) core.Chooser { return core.NewEpsDecreasing(n, 0.1, rng()) }},
		{"eps-decreasing(5.0)", func(n int) core.Chooser { return core.NewEpsDecreasing(n, 5.0, rng()) }},
	}
	type scored struct {
		name string
		s    trace.Scores
	}
	var results []scored
	for _, a := range algos {
		results = append(results, scored{a.name, trace.Score(traces, a.mk)})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].s.Average() < results[j].s.Average() })
	rows := [][]string{{"Algorithm", "Absolute/OPT", "Relative/OPT", "Average"}}
	for _, r := range results {
		rows = append(rows, []string{r.name,
			fmt.Sprintf("%.3f", r.s.AbsoluteOverOPT),
			fmt.Sprintf("%.3f", r.s.RelativeOverOPT),
			fmt.Sprintf("%.3f", r.s.Average())})
	}
	body := stats.FormatTable(rows)
	body += fmt.Sprintf("\n%d primitive instances traced; %d calls on average (paper: >300 instances,\n"+
		"16K-32K calls at SF-100). Scores are factors over the per-call oracle OPT;\n"+
		"compiler flavors rarely cross over mid-query, so all algorithms land close\n"+
		"to OPT, with windowed/scaled vw-greedy at the top — matching Table 5.\n",
		len(traces), horizon)
	return &Report{ID: "table5", Title: "Table 5: MAB algorithms on recorded TPC-H traces (factor over OPT)", Body: body}, nil
}

// Table11 reproduces the end-to-end comparison: per-query times of the
// baseline build, and improvement factors of the heuristics build and of
// Micro Adaptivity, with the geometric mean (the TPC-H power score).
func Table11(cfg Config) (*Report, error) {
	db := cfg.DB()
	const cyclesPerSec = 2.8e9 // nominal 2.8GHz clock for the seconds column

	type runResult struct{ cycles []float64 }
	runAll := func(mk func() *core.Session) (runResult, error) {
		var rr runResult
		for _, q := range tpch.Queries() {
			s := mk()
			if _, err := q.Run(db, s); err != nil {
				return rr, err
			}
			rr.cycles = append(rr.cycles, s.Ctx.TotalCycles())
		}
		return rr, nil
	}

	base, err := runAll(func() *core.Session { return cfg.TPCHSession(primitive.Defaults(), nil) })
	if err != nil {
		return nil, err
	}
	heur, err := runAll(func() *core.Session {
		scaled := cfg.Machine.ScaledCaches(cfg.cacheScale())
		return cfg.TPCHSession(primitive.Everything(), heuristics.Factory(scaled, heuristics.Default()))
	})
	if err != nil {
		return nil, err
	}
	adapt, err := runAll(func() *core.Session { return cfg.TPCHSession(primitive.Everything(), nil) })
	if err != nil {
		return nil, err
	}

	rows := [][]string{{"Query", "No Heuristics (sec)", "Heuristics", "Micro Adaptive"}}
	var hFactors, aFactors []float64
	for i, q := range tpch.Queries() {
		hf := base.cycles[i] / heur.cycles[i]
		af := base.cycles[i] / adapt.cycles[i]
		hFactors = append(hFactors, hf)
		aFactors = append(aFactors, af)
		rows = append(rows, []string{q.Name,
			fmt.Sprintf("%.3f", base.cycles[i]/cyclesPerSec),
			fmt.Sprintf("%.2f", hf),
			fmt.Sprintf("%.2f", af)})
	}
	hGeo, aGeo := stats.GeoMean(hFactors), stats.GeoMean(aFactors)
	rows = append(rows, []string{"Geo Avg", "", fmt.Sprintf("%.2f", hGeo), fmt.Sprintf("%.2f", aGeo)})
	body := stats.FormatTable(rows)
	body += fmt.Sprintf("\nvirtual seconds at a nominal %.1fGHz clock; factors are improvements over\n"+
		"the baseline build. Paper (SF-100, machine 1): heuristics 1.05, Micro\n"+
		"Adaptivity 1.09 — adaptivity should beat the hand-tuned heuristics here too\n"+
		"(measured: heuristics %.2f, micro adaptive %.2f).\n", cyclesPerSec/1e9, hGeo, aGeo)
	return &Report{ID: "table11", Title: "Table 11: TPC-H overall — heuristics vs Micro Adaptivity", Body: body}, nil
}
