//go:build !race

package dist

import (
	"testing"

	"microadapt/internal/plan"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// TestFragmentEncodeAllocsIndependentOfFleet: encoding a fragment body
// allocates the same, up to two allocations of slack, on a 1-shard and an
// 8-shard coordinator: once per site, not once per shard (~8x). It builds
// without -race only, since the race runtime allocates on its own.
func TestFragmentEncodeAllocsIndependentOfFleet(t *testing.T) {
	allocs := func(shards int) float64 {
		urls := make([]string, shards)
		for i := range urls {
			urls[i] = "http://unused.invalid"
		}
		c, err := New(Config{Shards: urls, DB: testDB, Service: service.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		site := plan.FragmentSites(tpch.Query(6).Plan(c.DB()))[0]
		return testing.AllocsPerRun(20, func() {
			if _, err := c.encodeFragment(site); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a8 := allocs(1), allocs(8); a8 > a1+2 {
		t.Errorf("fragment encoding allocations scale with fleet size: %v at N=1 vs %v at N=8", a1, a8)
	}
}
