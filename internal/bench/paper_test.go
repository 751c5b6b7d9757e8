package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePaper = flag.Bool("update", false, "rewrite testdata/paper/<id>.golden")

type tinyRun struct {
	rep *Report
	err error
}

var tinyRuns = map[string]tinyRun{}

// tinyReport runs experiment id at tinyConfig() once per test binary and
// hands every later caller the same report, so TestPaperGolden and
// TestFig6CrossoverOrdering do not pay for Figure 6 twice. Reports are
// deterministic, so sharing one run changes nothing they check.
func tinyReport(t *testing.T, id string) *Report {
	t.Helper()
	r, ok := tinyRuns[id]
	if !ok {
		e, found := ByID(id)
		if !found {
			t.Fatalf("unknown experiment %s", id)
		}
		r.rep, r.err = e.Run(tinyConfig())
		tinyRuns[id] = r
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.rep
}

// TestPaperGolden pins every registered experiment's report, byte for
// byte, at tinyConfig(): one file per experiment under testdata/paper,
// one subtest per id. Every experiment runs serially on hw.Machine's
// virtual cycles and seeded generators, so a report does not depend on
// the host's speed, GOMAXPROCS or the race detector. A change that moves
// a paper table or figure fails here and names the experiment. When the
// change is intentional, regenerate with:
//
//	go test ./internal/bench -run TestPaperGolden -update
func TestPaperGolden(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "fig6" && testing.Short() {
				t.Skip("fig6 sweeps four machines over nine filter sizes (~2s, ~20s under -race); skipped in -short mode")
			}
			rep := tinyReport(t, e.ID)
			if rep.ID != e.ID {
				t.Errorf("report id %q, want %q", rep.ID, e.ID)
			}
			got := rep.String()
			path := filepath.Join("testdata", "paper", e.ID+".golden")
			if *updatePaper {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if diff := firstDiffs(string(want), got, 10); diff != "" {
				t.Errorf("%s drifted from %s (first differing lines, -want +got):\n%s"+
					"if the change is intentional, regenerate with:\n\tgo test ./internal/bench -run 'TestPaperGolden/^%s$' -update",
					e.ID, path, diff, e.ID)
			}
		})
	}
}

// firstDiffs lists up to limit line pairs that differ between want and
// got, compared position by position; "" when they are equal.
func firstDiffs(want, got string, limit int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if limit == 0 {
			b.WriteString("...\n")
			break
		}
		limit--
		fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
	}
	return b.String()
}
