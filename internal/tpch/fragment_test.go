package tpch

import (
	"testing"

	"microadapt/internal/plan"
)

// TestFragmentJSONRoundTrip is the distribution codec property test over
// the full query corpus: every TPC-H plan's fragment sites must marshal
// -> unmarshal -> re-marshal canonically, and the wire form must carry
// the original plan's node labels — the invariant that makes shard-side
// flavor knowledge land under single-process cache keys.
func TestFragmentJSONRoundTrip(t *testing.T) {
	for _, q := range Queries() {
		t.Run(q.Name, func(t *testing.T) {
			b := q.Plan(testDB)
			sites := plan.FragmentSites(b)
			if len(sites) == 0 {
				t.Fatalf("%s: no fragment sites — every query scans at least one base table", q.Name)
			}
			for _, site := range sites {
				data, err := plan.MarshalPlan(site.Fragment)
				if err != nil {
					t.Fatalf("marshal fragment over %s: %v", site.Table, err)
				}
				rebuilt, err := plan.UnmarshalPlan(data, resolveTest)
				if err != nil {
					t.Fatalf("unmarshal fragment over %s: %v", site.Table, err)
				}
				orig, dec := site.Fragment.Nodes(), rebuilt.Nodes()
				if len(orig) != len(dec) {
					t.Fatalf("fragment over %s: %d nodes decoded as %d", site.Table, len(orig), len(dec))
				}
				for i := range orig {
					if orig[i].Label() != dec[i].Label() {
						t.Errorf("fragment over %s node %d: label %q decoded as %q",
							site.Table, i, orig[i].Label(), dec[i].Label())
					}
				}
				// The frontier node's label must be the original plan
				// position, not a fragment-local derivation.
				if got, want := orig[len(orig)-1].Label(), site.Node.Label(); got != want {
					t.Errorf("fragment over %s: frontier label %q, want original %q", site.Table, got, want)
				}
				again, err := plan.MarshalPlan(rebuilt)
				if err != nil {
					t.Fatalf("re-marshal fragment over %s: %v", site.Table, err)
				}
				if string(again) != string(data) {
					t.Errorf("fragment over %s: re-marshal not canonical", site.Table)
				}
			}
		})
	}
}
