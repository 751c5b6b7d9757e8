package core

import (
	"math"
	"math/rand"
	"testing"
)

// feat builds valid Features at a given selectivity.
func feat(sel float64) Features { return Features{Valid: true, Selectivity: sel} }

// TestContextualSeparatesRegimes: on a workload whose best arm flips with
// the context, a contextual wrapper must learn each bucket's best arm
// independently — the property a single context-free bandit cannot have.
func TestContextualSeparatesRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewContextual(2, func() Chooser { return NewEpsGreedy(2, 0.1, rng) })
	// Regime A (sel 0.1 → bucket s0): arm 0 cheap. Regime B (sel 0.6 →
	// bucket s2): arm 1 cheap.
	cost := func(sel float64, arm int) float64 {
		if (sel < 0.25) == (arm == 0) {
			return 1
		}
		return 10
	}
	for i := 0; i < 400; i++ {
		sel := 0.1
		if i%2 == 1 {
			sel = 0.6
		}
		arm := c.Choose(ChooseContext{Feat: feat(sel)})
		c.Observe(Observation{Arm: arm, Tuples: 100, Cycles: 100 * cost(sel, arm)})
	}
	// The "" bucket always exists (NewContextual probes it for the name).
	if got := c.order; len(got) != 3 || got[1] != "s0" || got[2] != "s2" {
		t.Fatalf("buckets = %v, want [\"\" s0 s2]", got)
	}
	// After learning, each regime must pick its own best arm (ε-greedy
	// still explores, so sample the exploit majority).
	for _, re := range []struct {
		sel  float64
		best int
	}{{0.1, 0}, {0.6, 1}} {
		hits := 0
		for i := 0; i < 100; i++ {
			arm := c.Choose(ChooseContext{Feat: feat(re.sel)})
			c.Observe(Observation{Arm: arm, Tuples: 100, Cycles: 100 * cost(re.sel, arm)})
			if arm == re.best {
				hits++
			}
		}
		if hits < 80 {
			t.Errorf("sel=%.1f: best arm chosen %d/100 times, want >= 80", re.sel, hits)
		}
	}
}

// TestContextualZeroContextDegrades: the zero ChooseContext is explicitly
// valid; without features every call lands in the "" bucket, i.e. the
// wrapper behaves as exactly one context-free inner chooser.
func TestContextualZeroContextDegrades(t *testing.T) {
	c := NewContextual(3, func() Chooser { return NewRoundRobin(3) })
	var got []int
	for i := 0; i < 6; i++ {
		arm := c.Choose(ChooseContext{})
		c.Observe(Observation{Arm: arm, Tuples: 1, Cycles: 1})
		got = append(got, arm)
	}
	for i, arm := range got {
		if arm != i%3 {
			t.Fatalf("call %d chose arm %d, want %d (single round-robin bucket)", i, arm, i%3)
		}
	}
	if b := c.order; len(b) != 1 || b[0] != "" {
		t.Errorf("buckets = %v, want exactly [\"\"]", b)
	}
}

// TestContextualSnapshotMergesBuckets: Snapshot reports, per arm, the
// cheapest self-measured cost across buckets, never priors.
func TestContextualSnapshotMergesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewContextual(2, func() Chooser { return NewEpsGreedy(2, 0, rng) })
	// Bucket s0 measures arm 0 at 2.0; bucket s2 measures arm 0 at 5.0 and
	// arm 1 at 3.0.
	c.Choose(ChooseContext{Feat: feat(0.1)})
	c.Observe(Observation{Arm: 0, Tuples: 10, Cycles: 20})
	c.Choose(ChooseContext{Feat: feat(0.6)})
	c.Observe(Observation{Arm: 0, Tuples: 10, Cycles: 50})
	c.Choose(ChooseContext{Feat: feat(0.6)})
	c.Observe(Observation{Arm: 1, Tuples: 10, Cycles: 30})

	costs, measured := c.Snapshot()
	if !measured[0] || !measured[1] {
		t.Fatalf("measured = %v, want both arms", measured)
	}
	if costs[0] != 2 || costs[1] != 3 {
		t.Errorf("costs = %v, want [2 3] (cheapest bucket per arm)", costs)
	}
}

// TestContextualSeedPriorsReachesFutureBuckets: priors seed buckets that
// do not exist yet at seeding time.
func TestContextualSeedPriorsReachesFutureBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewContextual(2, func() Chooser { return NewEpsGreedy(2, 0, rng) })
	c.SeedPriors([]float64{5, 1}) // arm 1 known cheaper fleet-wide
	// A brand-new bucket must exploit the prior immediately (ε = 0).
	if arm := c.Choose(ChooseContext{Feat: feat(0.9)}); arm != 1 {
		t.Errorf("fresh bucket chose arm %d, want prior-seeded 1", arm)
	}
}

// TestFeaturesBucket pins the bucket key scheme: selectivity quartile plus
// encoding, "" for the zero value.
func TestFeaturesBucket(t *testing.T) {
	cases := []struct {
		f    Features
		want string
	}{
		{Features{}, ""},
		{feat(0.0), "s0"},
		{feat(0.24), "s0"},
		{feat(0.5), "s2"},
		{feat(1.0), "s3"},
		{feat(math.Inf(1)), "s3"}, // clamped
		{feat(-1), "s0"},          // clamped
		{Features{Valid: true, Selectivity: 0.3, Encoding: "rle"}, "s1/rle"},
	}
	for _, tc := range cases {
		if got := tc.f.Bucket(); got != tc.want {
			t.Errorf("Bucket(%+v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}
