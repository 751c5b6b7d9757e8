package tpch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden explain files")

// goldenExplain renders the committed explain text of one query: the
// logical plan plus the physical lowering at P=1 and P=4 — so accidental
// plan drift, including partition-eligibility changes, fails the test.
func goldenExplain(q int) string {
	var out strings.Builder
	fmt.Fprintf(&out, "# golden explain for TPC-H Q%02d (testDB sf=0.005 seed=42)\n", q)
	out.WriteString(Explain(testDB, q, 1))
	out.WriteString(Explain(testDB, q, 4))
	return out.String()
}

// TestExplainGolden pins the logical and physical plans of all 22 queries.
// Regenerate with:
//
//	go test ./internal/tpch -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	for _, q := range Queries() {
		t.Run(q.Name, func(t *testing.T) {
			got := goldenExplain(q.ID)
			path := filepath.Join("testdata", "explain", fmt.Sprintf("q%02d.golden", q.ID))
			if *updateGolden {
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
			if got != string(want) {
				t.Errorf("plan drift for %s: explain output differs from %s\n"+
					"got:\n%s\nwant:\n%s\n(if the change is intentional, regenerate with -update)",
					q.Name, path, got, want)
			}
		})
	}
}

// TestExplainAnnotatesPartitions asserts the structural properties the
// goldens encode: the lineitem-heavy pipelines fan out at P=4, and the
// same plans stay serial at P=1.
func TestExplainAnnotatesPartitions(t *testing.T) {
	for _, q := range []int{1, 3, 6, 12, 14, 15} {
		at4 := Explain(testDB, q, 4)
		if !strings.Contains(at4, "Exchange [order-preserving merge of 4 morsel fragments]") {
			t.Errorf("Q%02d at P=4: no partitioned pipeline annotation:\n%s", q, at4)
		}
		at1 := Explain(testDB, q, 1)
		if strings.Contains(at1, "Exchange [order-preserving merge") {
			t.Errorf("Q%02d at P=1: unexpected fan-out annotation", q)
		}
	}
}

// TestExplainShowsScalars asserts scalar subplans print symbolically.
func TestExplainShowsScalars(t *testing.T) {
	out := Explain(testDB, 11, 1)
	if !strings.Contains(out, "$(Q11/agg0.total)/10000") {
		t.Errorf("Q11 explain misses the scalar threshold:\n%s", out)
	}
}
