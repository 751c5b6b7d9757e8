package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

// Experiments returns the full registry, in the paper's order. Every entry
// runs serially on virtual cycles and seeded generators, so its report is
// deterministic (testdata/paper pins each one).
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Table 1: execution-stage breakdown", Table1},
		{"fig1", "Figure 1: (no-)branching vs selectivity", Fig1},
		{"fig2", "Figure 2: (no-)branching in TPC-H Q12", Fig2},
		{"fig4", "Figure 4: compiler APHs", Fig4},
		{"fig5", "Figure 5: mergejoin by machine", Fig5},
		{"fig6", "Figure 6: bloom-filter loop fission", Fig6},
		{"table4", "Table 4: hand vs compiler unrolling", Table4},
		{"fig8", "Figure 8: full computation speedup", Fig8},
		{"fig10", "Figure 10: vw-greedy demonstration", Fig10},
		{"table5", "Table 5: MAB algorithms on traces", Table5},
	}
	for _, spec := range flavorSetSpecs {
		id := spec.id
		exps = append(exps, Experiment{id, spec.title, func(cfg Config) (*Report, error) {
			return FlavorSetTable(cfg, id)
		}})
	}
	exps = append(exps,
		Experiment{"fig11", "Figure 11: micro adaptive APHs", Fig11},
		Experiment{"table11", "Table 11: TPC-H overall", Table11},
		Experiment{"policycmp", "Policy comparison: cold vs. warm per policy", PolicyComparison},
		Experiment{"storage", "Compressed storage: flavor-adaptive scans vs. flat", StorageComparison},
	)
	return exps
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment, streaming reports to w. It keeps going
// on individual failures and returns the first error at the end.
func RunAll(cfg Config, w io.Writer) error {
	var firstErr error
	for _, e := range Experiments() {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "%s FAILED: %v\n\n", e.ID, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		fmt.Fprintln(w, rep.String())
	}
	return firstErr
}
