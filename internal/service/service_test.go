package service

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/tpch"
)

// testDB is shared across tests; generation dominates test wall time.
var testDB = tpch.Generate(0.002, 42)

func testConfig(warm bool) Config {
	cfg := DefaultConfig()
	cfg.WarmStart = warm
	cfg.Seed = 7
	return cfg
}

// fingerprint canonicalizes a result table for equivalence checks.
func fingerprint(t *engine.Table) string {
	return engine.TableString(t, 0) + fmt.Sprintf("rows=%d", t.Rows())
}

// baselineFingerprints runs each query single-threaded on a single-flavor
// build — the ground truth concurrent adaptive execution must reproduce.
func baselineFingerprints(t *testing.T, queries []int) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for _, q := range queries {
		dict := primitive.NewDictionary(primitive.Defaults())
		s := core.NewSession(dict, hw.Machine1(), core.WithVectorSize(128), core.WithSeed(3))
		tab, err := tpch.Query(q).Run(testDB, s)
		if err != nil {
			t.Fatalf("baseline Q%02d: %v", q, err)
		}
		out[q] = fingerprint(tab)
	}
	return out
}

// TestConcurrentResultsMatchBaseline is the core correctness property under
// concurrency: many workers over one shared DB and flavor cache, with
// adaptive flavor choice, must produce exactly the single-threaded
// single-flavor results. Run with -race this also exercises the shared
// dictionary, DB and cache for data races.
func TestConcurrentResultsMatchBaseline(t *testing.T) {
	queries := []int{1, 3, 6, 12, 14}
	want := baselineFingerprints(t, queries)

	svc := New(testDB, testConfig(true))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Each query executes several times concurrently so warm-started and
	// cold sessions are both in flight.
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				tab, st, err := svc.Execute(q)
				if err != nil {
					errs <- err
					return
				}
				if got := fingerprint(tab); got != want[q] {
					errs <- fmt.Errorf("Q%02d: concurrent result differs from baseline", q)
				}
				if st.AdaptiveCalls == 0 {
					errs <- fmt.Errorf("Q%02d: no adaptive calls recorded", q)
				}
				if st.Query != q {
					errs <- fmt.Errorf("Q%02d: stats name Q%02d", q, st.Query)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if svc.Cache().Len() == 0 {
		t.Error("cache empty after concurrent runs")
	}
}

// TestWarmStartConvergesFaster is the acceptance property of the warm
// start: a session seeded from the cache reaches its steady-state flavor
// choices with measurably fewer off-best calls than the cold session that
// populated the cache.
func TestWarmStartConvergesFaster(t *testing.T) {
	for _, q := range []int{1, 6, 12} {
		svc := New(testDB, testConfig(true))
		_, cold, err := svc.Execute(q) // empty cache: fully cold
		if err != nil {
			t.Fatalf("Q%02d cold: %v", q, err)
		}
		_, warm, err := svc.Execute(q) // seeded from the first run
		if err != nil {
			t.Fatalf("Q%02d warm: %v", q, err)
		}
		if cold.OffBestCalls == 0 {
			t.Fatalf("Q%02d: cold run paid no exploration tax; test is vacuous", q)
		}
		if warm.OffBestCalls >= cold.OffBestCalls {
			t.Errorf("Q%02d: warm off-best calls = %d, want < cold %d",
				q, warm.OffBestCalls, cold.OffBestCalls)
		}
		seeded, _ := svc.SeededInstances()
		if seeded == 0 {
			t.Errorf("Q%02d: no instances were seeded from the cache", q)
		}
	}
}

// TestWarmStartAcrossPolicies is the policy-agnostic warm-start
// acceptance property: for every learning policy in the registry the same
// cache, capabilities and harness must (a) produce baseline-identical
// results under concurrent execution (meaningful under -race: the cache,
// dictionary and DB are shared), (b) seed instances from the cache, and
// (c) not increase the exploration tax relative to the cold run that
// populated the cache.
func TestWarmStartAcrossPolicies(t *testing.T) {
	want := baselineFingerprints(t, []int{6})
	// The ctx- rows run the contextual choose path (per-bucket bandits,
	// lazy bucket creation, cached priors) under concurrency — the test is
	// meaningful under -race for them too.
	for _, pol := range []string{"vw-greedy", "eps-greedy", "ucb1", "thompson", "ctx-greedy", "ctx-vw-greedy"} {
		t.Run(pol, func(t *testing.T) {
			cfg := testConfig(true)
			cfg.Policy = pol
			svc := New(testDB, cfg)
			_, cold, err := svc.Execute(6) // empty cache: fully cold
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			// Concurrent warm executions, all seeded from the first run.
			var wg sync.WaitGroup
			stats := make([]JobStats, 6)
			errs := make([]error, 6)
			for i := range stats {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var tab *engine.Table
					tab, stats[i], errs[i] = svc.Execute(6)
					if errs[i] == nil && fingerprint(tab) != want[6] {
						errs[i] = fmt.Errorf("%s: warm concurrent result differs from baseline", pol)
					}
				}(i)
			}
			wg.Wait()
			var warmOffBest, warmRuns int64
			for i, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
				warmOffBest += stats[i].OffBestCalls
				warmRuns++
			}
			seeded, _ := svc.SeededInstances()
			if seeded == 0 {
				t.Errorf("%s: no instances were seeded from the cache", pol)
			}
			if avg := warmOffBest / warmRuns; avg > cold.OffBestCalls {
				t.Errorf("%s: warm off-best calls/run = %d, want <= cold %d", pol, avg, cold.OffBestCalls)
			}
			if svc.Cache().Len() == 0 {
				t.Errorf("%s: harvest left the cache empty", pol)
			}
		})
	}
}

// TestNonSnapshottingPolicyRunsCold: a policy without the capabilities
// (fixed) must execute correctly, never consult the cache for seeding, and
// contribute nothing to it.
func TestNonSnapshottingPolicyRuns(t *testing.T) {
	cfg := testConfig(true)
	cfg.Policy = "fixed:arm=0"
	svc := New(testDB, cfg)
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	if svc.Cache().Len() != 0 {
		t.Error("a non-Snapshotter policy must not populate the cache")
	}
	seeded, _ := svc.SeededInstances()
	if seeded != 0 {
		t.Error("a non-WarmStarter policy must not be seeded")
	}
}

// TestInvalidPolicySpecSurfaces: a bad spec is a configuration error every
// Execute reports, not a panic.
func TestInvalidPolicySpec(t *testing.T) {
	cfg := testConfig(true)
	cfg.Policy = "no-such-policy"
	svc := New(testDB, cfg)
	if _, _, err := svc.Execute(6); err == nil {
		t.Error("invalid policy spec should error on Execute")
	}
	cfg.Policy = "ucb1:bogus=1"
	if _, _, err := New(testDB, cfg).Execute(6); err == nil {
		t.Error("invalid policy parameter should error on Execute")
	}
}

// TestWarmStartDisabled: with WarmStart off the cache still accumulates
// knowledge (harvest is unconditional) but no instance gets seeded.
func TestWarmStartDisabled(t *testing.T) {
	svc := New(testDB, testConfig(false))
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	seeded, cold := svc.SeededInstances()
	if seeded != 0 || cold != 0 {
		t.Errorf("cold service should not consult the cache: seeded=%d cold=%d", seeded, cold)
	}
	if svc.Cache().Len() == 0 {
		t.Error("harvest should fill the cache even when warm start is off")
	}
}

// TestExecuteValidation: a query number outside 1-22 is an error, not a
// panic.
func TestExecuteValidation(t *testing.T) {
	svc := New(testDB, testConfig(true))
	for _, q := range []int{0, 23} {
		if _, _, err := svc.Execute(q); err == nil {
			t.Errorf("Execute(%d) should error", q)
		}
	}
}

// TestZeroValueConfigWorks: a hand-built Config (not derived from
// DefaultConfig) must not panic on the first query.
func TestZeroValueConfigWorks(t *testing.T) {
	svc := New(testDB, Config{})
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	// An entirely zero VW takes the full default, warmup/sweep included.
	if vw := svc.cfg.VW; vw != DefaultConfig().VW {
		t.Errorf("zero VW = %+v, want full default %+v", vw, DefaultConfig().VW)
	}
}

// TestConfigKeepsCallerVWParams is the regression test for the VW-defaults
// bug: New used to replace the entire VW struct whenever ExplorePeriod was
// unset, silently discarding an ExploitPeriod/ExploreLength/WarmupSkip the
// caller did set. Each unset field must default individually.
func TestConfigKeepsCallerVWParams(t *testing.T) {
	cfg := Config{VW: core.VWParams{ExploitPeriod: 5, ExploreLength: 3}}
	svc := New(testDB, cfg)
	vw := svc.cfg.VW
	if vw.ExploitPeriod != 5 {
		t.Errorf("caller-set ExploitPeriod clobbered: got %d, want 5", vw.ExploitPeriod)
	}
	if vw.ExploreLength != 3 {
		t.Errorf("caller-set ExploreLength clobbered: got %d, want 3", vw.ExploreLength)
	}
	if vw.ExplorePeriod != DefaultConfig().VW.ExplorePeriod {
		t.Errorf("unset ExplorePeriod = %d, want default %d", vw.ExplorePeriod, DefaultConfig().VW.ExplorePeriod)
	}
	// The defaulted parameters must actually run.
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	// Caller-set fields survive in the other direction too: ExplorePeriod
	// set, the rest unset.
	svc = New(testDB, Config{VW: core.VWParams{ExplorePeriod: 256}})
	vw = svc.cfg.VW
	if vw.ExplorePeriod != 256 {
		t.Errorf("caller-set ExplorePeriod clobbered: got %d, want 256", vw.ExplorePeriod)
	}
	if vw.ExploitPeriod != DefaultConfig().VW.ExploitPeriod {
		t.Errorf("unset ExploitPeriod = %d, want default %d", vw.ExploitPeriod, DefaultConfig().VW.ExploitPeriod)
	}
}

// TestParallelExecutionMatchesSerial: with PipelineParallelism P > 1 the
// partition sessions of Q3 (a partitioned scan feeding joins) harvest into
// the shared cache under exactly the serial plan's instance keys. That the
// results equal the serial plan's is the service-p rows of
// TestIdentityOracle (internal/dist).
func TestParallelExecutionMatchesSerial(t *testing.T) {
	// Every key — primitive instances and operator decisions alike — must
	// match the serial plan's exactly.
	keys := func(p int) (out []string) {
		cfg := testConfig(true)
		cfg.PipelineParallelism = p
		svc := New(testDB, cfg)
		if _, st, err := svc.Execute(3); err != nil || st.AdaptiveCalls == 0 {
			t.Fatalf("P=%d: err %v, %d adaptive calls", p, err, st.AdaptiveCalls)
		}
		for k := range svc.Cache().Export().Entries {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	if serial, parallel := keys(1), keys(4); !slices.Equal(parallel, serial) {
		t.Errorf("cache keys at P=4 differ from serial — partition tags leaked into keys?\n%v\nvs\n%v", parallel, serial)
	}
}

// TestParallelWarmStartSeedsFragments: fragment sessions participate in the
// warm start — after a priming query, the partitions of a parallel plan
// seed from the cache and the exploration tax drops, exactly like serial
// sessions. Run with -race this also exercises concurrent fragment
// goroutines over the shared cache, dictionary and DB.
func TestParallelWarmStartSeedsFragments(t *testing.T) {
	cfg := testConfig(true)
	cfg.PipelineParallelism = 4
	svc := New(testDB, cfg)
	_, cold, err := svc.Execute(6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	warm := make([]JobStats, 4)
	errs := make([]error, 4)
	for i := range warm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, warm[i], errs[i] = svc.Execute(6)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seeded, _ := svc.SeededInstances()
	if seeded == 0 {
		t.Error("no fragment instances were seeded from the cache")
	}
	var warmOffBest int64
	for _, st := range warm {
		warmOffBest += st.OffBestCalls
	}
	if cold.OffBestCalls == 0 {
		t.Fatal("cold parallel run paid no exploration tax; test is vacuous")
	}
	if avg := warmOffBest / int64(len(warm)); avg > cold.OffBestCalls {
		t.Errorf("warm parallel off-best calls/run = %d, want <= cold %d", avg, cold.OffBestCalls)
	}
}

// TestWarmStartCostsNoMoreCycles: a query stream warm-started from the
// shared cache spends no more primitive cycles than the same stream run
// cold. Off-best calls fall by more than half when warm, so a check on
// them alone passes while the cycles rise.
func TestWarmStartCostsNoMoreCycles(t *testing.T) {
	t.Skip("warm start spends ~15% more primitive cycles than cold (ROADMAP item 18)")
	db := tpch.Generate(0.01, 42)
	mix := []int{1, 6, 12, 14}
	const jobs = 48
	cycles := func(svc *Service, jobs int) (sum float64) {
		for i := 0; i < jobs; i++ {
			_, st, err := svc.Execute(mix[i%len(mix)])
			if err != nil {
				t.Fatal(err)
			}
			sum += st.PrimCycles
		}
		return sum
	}
	cold := cycles(New(db, testConfig(false)), jobs)
	svc := New(db, testConfig(true))
	cycles(svc, len(mix)) // priming pass
	if warm := cycles(svc, jobs); warm > cold {
		t.Errorf("%d warm jobs spent %.0f primitive cycles, %d cold ones %.0f (%.3fx)",
			jobs, warm, jobs, cold, warm/cold)
	}
}

// TestHarvestDoesNotEchoPriors: a warm-started session must publish only
// costs it measured itself. If the snapshot leaked seeded priors back
// through Harvest, the cache would EWMA-merge its own stale values on
// every warm query and the sample counts would grow without new evidence.
func TestHarvestDoesNotEchoPriors(t *testing.T) {
	svc := New(testDB, testConfig(true))
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	cache := svc.Cache()
	// Pick a cached multi-flavor instance and poison one of its flavors
	// with an absurd cost the virtual hardware can never produce.
	var key string // the least key, so every run poisons the same one
	for k := range cache.Export().Entries {
		if key == "" || k < key {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no cached knowledge after a query")
	}
	const poison = 123456789.0
	cache.mu.Lock()
	var poisoned string
	for name, k := range cache.entries[key] {
		k.cost = poison
		poisoned = name
		break
	}
	cache.mu.Unlock()
	// A warm session seeds the poisoned prior; because that arm now looks
	// maximally expensive the sweep skips it and the session never
	// measures it — so harvest must leave the cache entry untouched
	// rather than echo 123456789 back as a fresh observation.
	if _, _, err := svc.Execute(6); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	got := cache.entries[key][poisoned]
	cache.mu.Unlock()
	if got.cost != poison || got.samples != 1 {
		t.Errorf("unmeasured prior was re-harvested: cost=%v samples=%d, want %v/1",
			got.cost, got.samples, poison)
	}
}

func TestFlavorCacheBasics(t *testing.T) {
	c := NewFlavorCache()
	if _, any := c.Priors("k", []string{"a", "b"}); any {
		t.Error("empty cache should have no priors")
	}
	c.Observe("k", "a", 4)
	c.Observe("k", "b", 2)
	priors, any := c.Priors("k", []string{"a", "b", "missing"})
	if !any {
		t.Fatal("expected priors")
	}
	if priors[0] != 4 || priors[1] != 2 || !math.IsInf(priors[2], 1) {
		t.Errorf("priors = %v", priors)
	}
	// EWMA is recent-biased: a new observation moves the estimate halfway.
	c.Observe("k", "a", 8)
	priors, _ = c.Priors("k", []string{"a"})
	if priors[0] != 6 {
		t.Errorf("EWMA cost = %v, want 6", priors[0])
	}
	// Junk costs are ignored.
	c.Observe("k", "a", math.Inf(1))
	c.Observe("k", "a", math.NaN())
	c.Observe("k", "a", -1)
	priors, _ = c.Priors("k", []string{"a"})
	if priors[0] != 6 {
		t.Errorf("junk observation changed cost to %v", priors[0])
	}
	if c.Len() != 1 || c.Export().Len() != 1 {
		t.Errorf("cache shape: len=%d exported=%d", c.Len(), c.Export().Len())
	}
}

// TestCacheConcurrentAccess hammers the cache from many goroutines; it is
// meaningful mainly under -race.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewFlavorCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%4)
			for i := 0; i < 500; i++ {
				c.Observe(key, "a", float64(i%7+1))
				c.Priors(key, []string{"a", "b"})
				c.Export()
				c.Len()
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheNeverStoresNonFiniteCosts is the regression test for the
// finite-cost invariant: under concurrent observes mixing junk (Inf, NaN,
// negative) with float64-horizon values like MaxFloat64, nothing the cache
// hands back — priors or exports — may ever be non-finite, and EWMA
// merging at the horizon must not overflow into +Inf. Run with -race this
// also guards the merge path itself.
func TestCacheNeverStoresNonFiniteCosts(t *testing.T) {
	c := NewFlavorCache()
	junk := []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1, math.MaxFloat64, math.MaxFloat64 / 2, 3.5}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%2)
			for i := 0; i < 400; i++ {
				c.Observe(key, "a", junk[(g+i)%len(junk)])
				c.Observe(key, "b", junk[(g*3+i)%len(junk)])
			}
		}(g)
	}
	wg.Wait()
	for _, key := range []string{"k0", "k1"} {
		priors, any := c.Priors(key, []string{"a", "b"})
		if !any {
			t.Fatalf("%s: finite observations were dropped entirely", key)
		}
		for i, p := range priors {
			if math.IsNaN(p) || p < 0 {
				t.Errorf("%s prior[%d] = %v", key, i, p)
			}
			// +Inf is the legal "unknown" marker, but here both flavors saw
			// finite costs, so the stored estimates must be finite.
			if math.IsInf(p, 1) {
				t.Errorf("%s prior[%d] is +Inf after finite observes", key, i)
			}
		}
		if e := c.Export().Entries[key]; len(e) != 2 {
			t.Errorf("%s exported %v, want both flavors finite", key, e)
		}
	}
}
