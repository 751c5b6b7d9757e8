package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"microadapt/internal/tpch"
)

// Experiment is a registry entry: an id and the title its report prints.
type Experiment struct {
	ID    string
	Title string
	run   func(l *lab) (string, error)
}

// Experiments returns the full registry, in the paper's order. Every entry
// runs serially on virtual cycles and seeded generators, so its report is
// deterministic (testdata/paper pins each one).
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Table 1: time spent in execution stages", table1},
		{"fig1", "Figure 1: (No-)Branching primitive cost vs. selectivity", fig1},
		{"fig2", "Figure 2: (No-)Branching primitive cost in TPC-H Q12", fig2},
		{"fig4", "Figure 4: compiler differences (sample APHs, TPC-H)", fig4},
		{"fig5", "Figure 5: mergejoin — best compiler depends on machine", fig5},
		{"fig6", "Figure 6: sel_bloomfilter speedup with loop fission", fig6},
		{"table4", "Table 4: map_mul — hand vs compiler unrolling (cycles/tuple)", table4},
		{"fig8", "Figure 8: map_mul — full computation speedup", fig8},
		{"fig10", "Figure 10: vw-greedy in action on 3 flavors", fig10},
		{"table5", "Table 5: MAB algorithms on recorded TPC-H traces (factor over OPT)", table5},
	}
	for _, spec := range flavorSetSpecs {
		exps = append(exps, Experiment{spec.id, spec.title, func(l *lab) (string, error) {
			return flavorSetTable(l, spec.id)
		}})
	}
	return append(exps,
		Experiment{"fig11", "Figure 11: Micro Adaptive execution (sample APHs)", fig11},
		Experiment{"table11", "Table 11: TPC-H overall — heuristics vs Micro Adaptivity", table11},
		Experiment{"policycmp", "Policy comparison: cold vs. warm-started exploration tax per registered policy", policyComparison},
		Experiment{"storage", "Compressed storage: flavor-adaptive scans vs. flat", storageComparison},
	)
}

// Run runs the experiments ids names ("all" alone names every one) in one
// lab and writes each report to w. It resolves every id before it runs
// any, keeps going past a failing experiment and returns the first error.
func Run(cfg Config, ids []string, w io.Writer) error {
	exps, err := resolve(ids)
	if err != nil {
		return err
	}
	l := newLab(cfg)
	var firstErr error
	for _, e := range exps {
		body, err := e.run(l)
		if err != nil {
			fmt.Fprintf(w, "%s FAILED: %v\n\n", e.ID, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		fmt.Fprintln(w, render(e.Title, body))
	}
	return firstErr
}

// resolve looks up every id in the registry, in the order given.
func resolve(ids []string) ([]Experiment, error) {
	all := Experiments()
	if len(ids) == 1 && ids[0] == "all" {
		return all, nil
	}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		j := slices.IndexFunc(all, func(e Experiment) bool { return e.ID == id })
		if j < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps[i] = all[j]
	}
	return exps, nil
}

// render lays out one report: the title, an underline and the body.
func render(title, body string) string {
	return fmt.Sprintf("%s\n%s\n%s\n", title, strings.Repeat("=", len(title)), body)
}

// lab holds what the experiments of one Run share: the configuration, its
// database (generated on first use) and the flavor-set studies run so far,
// by study id. Figure 2 reads Table 6's study, Table 5 replays Table 7's
// and Figure 11 reads all five, so each study runs once per lab.
type lab struct {
	cfg     Config
	db      *tpch.DB
	studies map[string]*flavorSetRun
}

func newLab(cfg Config) *lab {
	return &lab{cfg: cfg, studies: map[string]*flavorSetRun{}}
}

// tpchDB returns the lab's database, generating it on first use.
func (l *lab) tpchDB() *tpch.DB {
	if l.db == nil {
		l.db = tpch.Generate(l.cfg.SF, l.cfg.Seed)
	}
	return l.db
}
