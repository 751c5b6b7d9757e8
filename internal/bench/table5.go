package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/stats"
)

// table5 reproduces the MAB-algorithm comparison by the simulation on
// traces of §3.2: every pinned instance of Table 7's runs over the full
// TPC-H suite records what its compiler flavor cost per call,
// collectTraces lines the three runs up into one cost matrix per
// instance, and score replays the matrices through each algorithm against
// OPT, the per-call oracle.
func table5(l *lab) (string, error) {
	r, err := l.flavorSet("table7")
	if err != nil {
		return "", err
	}
	traces, err := collectTraces(r.arms)
	if err != nil {
		return "", err
	}
	var calls int
	for _, tr := range traces {
		calls += len(tr.tuples)
	}
	horizon := calls / len(traces)

	type algo struct {
		name string
		mk   func(n int) core.Chooser
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(l.cfg.Seed)) }
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
	var results []scores
	for _, a := range algos {
		results = append(results, score(a.name, traces, a.mk))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].average() < results[j].average() })
	rows := [][]string{{"Algorithm", "Absolute/OPT", "Relative/OPT", "Average"}}
	for _, r := range results {
		rows = append(rows, []string{r.name,
			fmt.Sprintf("%.3f", r.absolute),
			fmt.Sprintf("%.3f", r.relative),
			fmt.Sprintf("%.3f", r.average())})
	}
	// Rows that tie the best vw-greedy row share its rank.
	best := results[slices.IndexFunc(results, func(r scores) bool { return strings.HasPrefix(r.name, "vw-greedy") })]
	rank := 1
	for _, r := range results {
		if r.average() < best.average() {
			rank++
		}
	}
	verdict := "does not hold at this scale"
	if rank == 1 {
		verdict = "holds here"
	}
	body := stats.FormatTable(rows)
	body += fmt.Sprintf("\n%d primitive instances traced; %d calls on average (paper: >300 instances,\n"+
		"16K-32K calls at SF-100). Scores are factors over the per-call oracle OPT;\n"+
		"compiler flavors rarely cross over mid-query, so all algorithms land close\n"+
		"to OPT. The best vw-greedy row ranks %d of %d, so Table 5's vw-greedy lead\n%s.\n",
		len(traces), horizon, rank, len(results), verdict)
	return body, nil
}

// instanceTrace holds the recorded per-call costs of one primitive
// instance: cycles[arm][call] is what flavor arm cost on that call.
// Because flavors are functionally equivalent and the engine is
// deterministic, call sequences align exactly across the per-arm runs.
type instanceTrace struct {
	label  string
	tuples []int       // tuples per call
	cycles [][]float64 // [arm][call]
}

// optCycles is the oracle total: the per-call minimum across arms.
func (tr *instanceTrace) optCycles() float64 {
	var total float64
	for call := range tr.tuples {
		best := tr.cycles[0][call]
		for _, arm := range tr.cycles[1:] {
			best = min(best, arm[call])
		}
		total += best
	}
	return total
}

// recorder wraps a chooser and logs every observation it is fed.
type recorder struct {
	core.Chooser
	tuples []int
	cycles []float64
}

func (r *recorder) Observe(o core.Observation) {
	r.Chooser.Observe(o)
	r.tuples = append(r.tuples, o.Tuples)
	r.cycles = append(r.cycles, o.Cycles)
}

// recording wraps every chooser f builds so that collectTraces can read
// back the per-call costs its instance observed. Choices are f's own.
func recording(f core.ChooserFactory) core.ChooserFactory {
	return func(n int) core.Chooser { return &recorder{Chooser: f(n)} }
}

// collectTraces builds the per-instance traces of runs that executed the
// same workload, sessions[arm] pinned to arm under a recording factory,
// and returns them sorted by label. Only instances with a choice are
// traced: a single-flavor instance runs the same flavor in every run, and
// its identical columns would pull every score toward 1.0. Pinned runs
// fix every decision, so an instance that ran in one session runs in all
// of them with the same calls; one that does not is an error.
func collectTraces(sessions []*core.Session) ([]*instanceTrace, error) {
	byLabel := make(map[string]*instanceTrace)
	var out []*instanceTrace
	for arm, s := range sessions {
		for _, inst := range s.Instances() {
			rec, _ := inst.Chooser().(*recorder)
			if rec == nil || len(inst.Arms) < 2 || len(rec.tuples) == 0 {
				continue
			}
			tr := byLabel[inst.Label]
			if tr == nil {
				tr = &instanceTrace{label: inst.Label, tuples: rec.tuples, cycles: make([][]float64, len(sessions))}
				byLabel[inst.Label] = tr
				out = append(out, tr)
			}
			if len(rec.tuples) != len(tr.tuples) {
				return nil, fmt.Errorf("bench: instance %s ran %d calls pinned to arm %d, %d in an earlier run",
					inst.Label, len(rec.tuples), arm, len(tr.tuples))
			}
			tr.cycles[arm] = rec.cycles
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	for _, tr := range out {
		if arm := slices.IndexFunc(tr.cycles, func(c []float64) bool { return c == nil }); arm >= 0 {
			return nil, fmt.Errorf("bench: instance %s has no calls in the run pinned to arm %d", tr.label, arm)
		}
	}
	return out, nil
}

// simulate replays one trace through a chooser and returns its total cost.
func simulate(tr *instanceTrace, mk func(n int) core.Chooser) float64 {
	ch := mk(len(tr.cycles))
	var total float64
	for call, tuples := range tr.tuples {
		arm := ch.Choose(core.ChooseContext{})
		if arm < 0 || arm >= len(tr.cycles) {
			arm = 0
		}
		c := tr.cycles[arm][call]
		ch.Observe(core.Observation{Arm: arm, Tuples: tuples, Cycles: c})
		total += c
	}
	return total
}

// scores are one algorithm's two metrics of Table 5 (lower is better,
// 1.0 = OPT).
type scores struct {
	name     string
	absolute float64 // Absolute/OPT
	relative float64 // Relative/OPT
}

// average is the mean of the two scores, the ranking key of Table 5.
func (s scores) average() float64 { return (s.absolute + s.relative) / 2 }

// score runs the algorithm name over all traces. Absolute/OPT divides
// workload totals (weighting instances by their cost); Relative/OPT
// averages the per-instance ratios.
func score(name string, traces []*instanceTrace, mk func(n int) core.Chooser) scores {
	var sumAlgo, sumOpt, relSum float64
	relN := 0
	for _, tr := range traces {
		algo := simulate(tr, mk)
		opt := tr.optCycles()
		sumAlgo += algo
		sumOpt += opt
		if opt > 0 {
			relSum += algo / opt
			relN++
		}
	}
	s := scores{name: name}
	if sumOpt > 0 {
		s.absolute = sumAlgo / sumOpt
	}
	if relN > 0 {
		s.relative = relSum / float64(relN)
	}
	return s
}
