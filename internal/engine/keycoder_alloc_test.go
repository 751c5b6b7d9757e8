//go:build !race

package engine

import (
	"testing"

	"microadapt/internal/vector"
)

// TestHashAggCompositeKeyAllocsFlatInRows: grouping on two string columns
// and an int column allocates per distinct group, not per row — 64 groups
// over 4 096 and over 65 536 rows cost the same, up to a small slack. It
// builds without -race only, since the race runtime allocates on its own.
func TestHashAggCompositeKeyAllocsFlatInRows(t *testing.T) {
	names := []string{"red", "green", "blue", "cyan"}
	allocs := func(rows int) float64 {
		a, b := make([]string, rows), make([]string, rows)
		n, v := make([]int32, rows), make([]int64, rows)
		for i := range a {
			a[i], b[i], n[i], v[i] = names[i%4], names[i/4%4], int32(i/16%4), int64(i)
		}
		tab := NewTable("t",
			vector.Schema{{Name: "a", Type: vector.Str}, {Name: "b", Type: vector.Str},
				{Name: "n", Type: vector.I32}, {Name: "v", Type: vector.I64}},
			[]*vector.Vector{vector.FromStr(a), vector.FromStr(b), vector.FromI32(n), vector.FromI64(v)})
		return testing.AllocsPerRun(5, func() {
			s := benchEngSession()
			out, err := Materialize(NewHashAgg(s, NewScan(s, tab), "g", []int{0, 1, 2},
				Agg(AggCount, -1, "cnt"), Agg(AggSum, 3, "sv")))
			if err != nil {
				t.Fatal(err)
			}
			if out.Rows() != 64 {
				t.Fatalf("%d groups, want 64", out.Rows())
			}
		})
	}
	small, large := allocs(4096), allocs(65536)
	t.Logf("allocations: %v at 4096 rows, %v at 65536", small, large)
	if large > small+32 {
		t.Errorf("composite-key HashAgg allocations grow with rows: %v at 4096 rows vs %v at 65536", small, large)
	}
}
