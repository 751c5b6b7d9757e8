package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
)

// resolveTest resolves scan tables against the shared test database, the
// way the query server resolves client plans against its own.
func resolveTest(name string) (*engine.Table, bool) { return testDB.TableByName(name) }

// TestPlanJSONRoundTrip is the codec property test over the full query
// corpus: every TPC-H logical DAG must marshal -> unmarshal -> explain
// identically, at P=1 and P=4, and the round-tripped explain must equal
// the committed golden file — so the wire form provably carries everything
// the planner derives labels, schemas and partitionability from. A second
// marshal of the rebuilt plan must reproduce the wire bytes (the encoding
// is canonical, not just lossless).
func TestPlanJSONRoundTrip(t *testing.T) {
	for _, q := range Queries() {
		t.Run(q.Name, func(t *testing.T) {
			orig := q.Plan(testDB)
			data, err := plan.MarshalPlan(orig)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			rebuilt, err := plan.UnmarshalPlan(data, resolveTest)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			for _, p := range []int{1, 4} {
				if got, want := rebuilt.Explain(p), orig.Explain(p); got != want {
					t.Fatalf("explain(P=%d) drift after round trip:\ngot:\n%s\nwant:\n%s", p, got, want)
				}
			}
			golden := fmt.Sprintf("# golden explain for TPC-H Q%02d (testDB sf=0.005 seed=42)\n", q.ID) +
				rebuilt.Explain(1) + rebuilt.Explain(4)
			path := filepath.Join("testdata", "explain", fmt.Sprintf("q%02d.golden", q.ID))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if golden != string(want) {
				t.Errorf("round-tripped plan differs from golden %s", path)
			}
			again, err := plan.MarshalPlan(rebuilt)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(again) != string(data) {
				t.Errorf("re-marshal not canonical:\nfirst:  %s\nsecond: %s", data, again)
			}
		})
	}
}

// FuzzUnmarshalPlan: the plan codec is the network-facing input of
// /v1/plan. Decoding arbitrary bytes must never panic, and whatever
// decodes must re-marshal and decode again to the same plan (equal
// Explain). Seeded with the 22 TPC-H plans; executing the round-tripped
// plans is the planjson row of TestIdentityOracle (internal/dist).
func FuzzUnmarshalPlan(f *testing.F) {
	for _, q := range Queries() {
		data, err := plan.MarshalPlan(q.Plan(testDB))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := plan.UnmarshalPlan(data, resolveTest)
		if err != nil {
			return
		}
		again, err := plan.MarshalPlan(b)
		if err != nil {
			t.Fatalf("decoded plan does not re-marshal: %v", err)
		}
		b2, err := plan.UnmarshalPlan(again, resolveTest)
		if err != nil {
			t.Fatalf("re-marshalled plan does not decode: %v\n%s", err, again)
		}
		if got, want := b2.Explain(1), b.Explain(1); got != want {
			t.Fatalf("explain drift after re-marshal:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}
