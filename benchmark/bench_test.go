package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndSliceMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// The median slice shrugs off one slice that met a noisy neighbour.
	if got := median([]float64{545, 589, 560, 301, 571}); got != 560 {
		t.Errorf("median slice = %g, want 560", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4, method='inclusive') == [3.25, 5.5, 7.75].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := relSpread(ten); !near(got, 4.5/5.5) {
		t.Errorf("relSpread(1..10) = %g, want (7.75-3.25)/5.5", got)
	}
	// Of five slices the spread is second to fourth: one slow slice does not
	// widen it, two do.
	if got := relSpread([]float64{100, 98, 300, 102, 101}); !near(got, (102.0-100)/101) {
		t.Errorf("relSpread with one outlier = %g", got)
	}
	if got := relSpread([]float64{100, 98, 300, 102, 290}); !near(got, (290.0-100)/102) {
		t.Errorf("relSpread with two outliers = %g", got)
	}
	if relSpread([]float64{5}) != 0 || relSpread(nil) != 0 {
		t.Error("relSpread of fewer than two values must be 0")
	}
}

// TestNominalSpeed: while the yardstick runs at twice its nominal time the
// machine is half as fast, so a duration counts half and a rate double; a
// withheld vCPU stretches the wall reading and not the CPU reading.
func TestNominalSpeed(t *testing.T) {
	slow := reading{wallNS: 2 * calibNominalNS, cpuNS: 2 * calibNominalNS}
	stolen := reading{wallNS: 4 * calibNominalNS, cpuNS: calibNominalNS}
	quiet := reading{wallNS: calibNominalNS, cpuNS: calibNominalNS}
	if sp := speedIndex([]reading{slow, slow, quiet}); !near(sp.wall, 0.5) || !near(sp.cpu, 0.5) {
		t.Errorf("speedIndex = %+v, want the median reading's 0.5", sp)
	}
	if sp := speedIndex([]reading{stolen}); !near(sp.wall, 0.25) || !near(sp.cpu, 1) {
		t.Errorf("speedIndex under steal = %+v, want wall 0.25, cpu 1", sp)
	}
	if sp := speedIndex(nil); sp != (speed{1, 1}) {
		t.Errorf("speedIndex of no readings = %+v, want 1", sp)
	}
	if got := nominal([]float64{10, 10}, []float64{0.5, 1}, false); !near(got[0], 5) || !near(got[1], 10) {
		t.Errorf("nominal durations = %v, want [5 10]", got)
	}
	if got := nominal([]float64{100}, []float64{0.5}, true); !near(got[0], 200) {
		t.Errorf("nominal rate = %v, want [200]", got)
	}
	if r := newCalibrator().sample(); r.wallNS <= 0 || r.cpuNS <= 0 {
		t.Errorf("yardstick reading %+v", r)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{8400, 99}, // 84 samples beyond p99, 8.4 beyond p99.9
		{10000, 99.9},
		{300, 95}, // 15 beyond p95, 3 beyond p99
		{225, 95}, // 11.25 beyond
		{199, 90}, // 9.95 beyond p95: fewer than ten, fall back
		{150, 90},
		{99, 75}, // 9.9 beyond p90
		{40, 75}, // exactly ten beyond p75
		{39, 50}, // nothing but the median is supported
		{0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Request: 1, Name: rootSpan, Start: 0, End: 100},
		// Two siblings in sequence, a gap of 10 between them.
		{ID: 2, Parent: 1, Request: 1, Name: "a", Start: 0, End: 30},
		{ID: 3, Parent: 1, Request: 1, Name: "b", Start: 40, End: 90},
		// Nested under b: two children running in parallel, overlapping
		// on [55,60], one of them reaching past its parent's end.
		{ID: 4, Parent: 3, Request: 1, Name: "c", Start: 45, End: 60},
		{ID: 5, Parent: 3, Request: 1, Name: "c", Start: 55, End: 95},
		// Grandchild.
		{ID: 6, Parent: 4, Request: 1, Name: "d", Start: 50, End: 58},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - 30 - 50, // root: what neither a nor b covers
		2: 30,
		3: 50 - 45, // b [40,90] minus the union [45,90] of its children, clipped to b
		4: 15 - 8,
		5: 40,
		6: 8,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	reqs, totals := foldRequests(spans)
	if len(reqs) != 1 || reqs[0].latency != 100 || reqs[0].rootSelf != 20 {
		t.Fatalf("foldRequests: got %d requests, %+v", len(reqs), reqs)
	}
	if reqs[0].dur["c"] != 15+40 || reqs[0].count["c"] != 2 || reqs[0].self["b"] != 5 {
		t.Errorf("folded request: dur[c]=%d count[c]=%d self[b]=%d", reqs[0].dur["c"], reqs[0].count["c"], reqs[0].self["b"])
	}
	if totals.dur[rootSpan] != 100 {
		t.Errorf("totals.dur[request] = %d, want 100", totals.dur[rootSpan])
	}

	// Rebased into a shared trace file, the tree keeps its shape.
	if top := rebase(spans, 1000, "w"); top != 1006 {
		t.Errorf("rebase: highest id %d, want 1006", top)
	}
	if spans[0].ID != 1001 || spans[0].Parent != 0 || spans[0].Request != 1001 || spans[0].Workload != "w" ||
		spans[5].Parent != 1004 || spans[5].Request != 1001 || spans[5].Workload != "" {
		t.Errorf("rebase: root %+v, grandchild %+v", spans[0], spans[5])
	}
	if rebased := selfTimes(spans); rebased[1003] != want[3] || rebased[1001] != want[1] {
		t.Errorf("self times changed under rebase: %v", rebased)
	}
}

func TestSeededShuffleIsDeterministic(t *testing.T) {
	mix := []int{1, 3, 6, 12, 14, 19}
	seq := func(seed int64, client int) [][]int {
		ms := newMixStream(mix, seed, client)
		var out [][]int
		for i := 0; i < 50; i++ {
			perm, pass := ms.next()
			if pass != i {
				t.Fatalf("pass index %d, want %d", pass, i)
			}
			out = append(out, perm)
		}
		return out
	}
	a, b := seq(42, 0), seq(42, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different sequences")
	}
	if reflect.DeepEqual(a, seq(43, 0)) || reflect.DeepEqual(a, seq(42, 1)) {
		t.Fatal("another seed or client gave the same sequence")
	}
	shuffled := false
	for _, perm := range a {
		sum := 0
		for _, q := range perm {
			sum += q
		}
		if len(perm) != len(mix) || sum != 55 {
			t.Fatalf("pass %v is not a permutation of %v", perm, mix)
		}
		shuffled = shuffled || !reflect.DeepEqual(perm, mix)
	}
	if !shuffled {
		t.Fatal("fifty passes and none was shuffled")
	}
	if !reflect.DeepEqual(mix, []int{1, 3, 6, 12, 14, 19}) {
		t.Fatal("shuffling wrote through to the workload table")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	v := func(x float64, sl ...float64) metricValue { return metricValue{Value: x, Slices: sl} }
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b metricValue
		want string
	}{
		{"unchanged", lower, v(10), v(10), verdictOK},
		{"worse within bound", lower, v(10), v(10.9), verdictOK},
		{"worse beyond bound", lower, v(10), v(11.5), verdictRegressed},
		{"better", lower, v(10), v(5), verdictOK},
		{"higher-is-better dropped", higher, v(100), v(80), verdictRegressed},
		{"higher-is-better rose", higher, v(100), v(150), verdictOK},
		{"tight slices, within bound", lower, v(10, 9.8, 9.9, 10, 10.1, 10.2), v(10.5, 10.3, 10.4, 10.5, 10.6, 10.7), verdictOK},
		{"slices spread wider than the bound", lower, v(10, 8, 9, 10, 11, 12), v(10.5, 9, 10, 10.5, 11, 12), verdictUnresolved},
		{"wide slices but far worse than they spread", lower, v(10, 9, 9.5, 10, 10.5, 11.5), v(20, 19, 20, 20, 21, 22), verdictRegressed},
		{"wide slices, worse by less than they spread", lower, v(10, 8, 9, 10, 11, 12), v(11.5, 9.5, 10.5, 11.5, 12.5, 13.5), verdictUnresolved},
		{"zero to something", lower, v(0), v(1), verdictRegressed},
	} {
		if got := judge(c.d, c.d.Bound, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (worse %.3f, spread %.3f)", c.name, got.verdict, c.want, got.worse, got.spread)
		}
	}

	// A counter has no slices: any move beyond its bound is a regression.
	// A wall-clock metric of a noisy run is unresolved at worst.
	a := &report{Workloads: []*workloadResult{
		{Name: "embed-short", EndToEnd: map[string]metricValue{
			"latency_p50_ms": v(10, 9.9, 10, 10.1), "queries_per_s": v(100, 99, 100, 101), "setup_s": v(1, 0.5, 1, 3),
			"virt_cycles_per_query": v(1000), "allocs_per_query": v(500)}},
		{Name: "served-mix", EndToEnd: map[string]metricValue{"virt_cycles_per_query": v(1000)}},
		{Name: "dist-n2", EndToEnd: map[string]metricValue{"latency_p50_ms": v(10)}},
	}}
	b := &report{Workloads: []*workloadResult{
		{Name: "embed-short", EndToEnd: map[string]metricValue{
			"latency_p50_ms": v(20, 19, 20, 21), "queries_per_s": v(100, 99, 100, 101), "setup_s": v(1.3, 0.5, 1.3, 3),
			"virt_cycles_per_query": v(1030)}},
		{Name: "served-mix", EndToEnd: map[string]metricValue{"virt_cycles_per_query": v(1030)}},
		{Name: "only-in-b"},
	}}
	got := map[string]string{}
	for _, r := range compareReports(a, b) {
		got[r.workload+" "+r.metric] = r.verdict
	}
	want := map[string]string{
		"embed-short latency_p50_ms":        verdictRegressed,
		"embed-short queries_per_s":         verdictOK,
		"embed-short setup_s":               verdictUnresolved, // the set-ups themselves spread wider than the bound
		"embed-short virt_cycles_per_query": verdictRegressed,  // +3 % against 2 % with one client
		"served-mix virt_cycles_per_query":  verdictOK,         // +3 % against 5 % where clients interleave
		"embed-short allocs_per_query":      verdictMissing,    // B stopped reporting it
		"dist-n2 latency_p50_ms":            verdictMissing,    // B lost the workload
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}
	if regressed, unresolved := printCompare(io.Discard, compareReports(a, b)); regressed != 4 || unresolved != 1 {
		t.Errorf("%d regressed, %d unresolved; want 4 (missing rows count as regressed) and 1", regressed, unresolved)
	}
}

// TestProbesDoNotTimeTheirSetUp holds the flavor-lab probes to their word:
// the dictionary, session and vectors are built before the timed region, so
// the region allocates nothing — where building one dictionary alone takes
// thousands of allocations.
func TestProbesDoNotTimeTheirSetUp(t *testing.T) {
	dict := timeProbe(time.Millisecond, probeByName(t, "primitive.dictionary_build_ms").prepare(nil))
	if dict.allocsPerOp < 1000 {
		t.Fatalf("building a dictionary took %.0f allocations; the test's yardstick is broken", dict.allocsPerOp)
	}
	for _, name := range []string{
		"primitive.sel_branch_ns_per_tuple", "primitive.sel_nobranch_ns_per_tuple",
		"primitive.decompress_eager_ns_per_tuple", "primitive.decompress_lazy_ns_per_tuple",
		"policy.choose_observe_ns", "hw.cache_access_ns",
	} {
		r := timeProbe(2*time.Millisecond, probeByName(t, name).prepare(nil))
		if r.iters < 1 || r.nsPerOp <= 0 {
			t.Errorf("%s: %d iterations, %g ns/op", name, r.iters, r.nsPerOp)
		}
		if r.allocsPerOp > 0.5 {
			t.Errorf("%s: %.2f allocations per op inside the timed region, want none", name, r.allocsPerOp)
		}
	}
	for _, viaInstance := range []bool{false, true} {
		if r := timeProbe(2*time.Millisecond, selectionLab(0, 16, viaInstance)); r.allocsPerOp > 0.5 {
			t.Errorf("run-overhead probe (via instance: %v): %.2f allocations per op", viaInstance, r.allocsPerOp)
		}
	}
}

func probeByName(t *testing.T, name string) probe {
	t.Helper()
	for _, p := range probes() {
		if p.name == name {
			return p
		}
	}
	t.Fatalf("no probe %s", name)
	return probe{}
}

// TestSmokeEveryWorkload runs all five workloads at sf 0.002 and one pass:
// every metric the workload should report is there exactly once (put panics
// on a second), with its unit, nothing else is, and no result failed.
func TestSmokeEveryWorkload(t *testing.T) {
	opt := options{seed: 7, passesScale: 1, setups: 1, probeBudget: 200 * time.Microsecond, cal: newCalibrator()}
	for _, w := range workloads {
		w.SF, w.Passes, w.Warmup = 0.002, 1, 2
		t.Run(w.Name, func(t *testing.T) {
			u, err := runUntraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if u.Failed != 0 || tr.Failed != 0 || u.EndToEnd["failed_frac"].Value != 0 {
				t.Errorf("failed: untraced %d of %d, traced %d of %d", u.Failed, u.Attempted, tr.Failed, tr.Attempted)
			}
			wantQueries := len(w.Mix) * w.Clients
			if w.Baseline {
				wantQueries *= 2
			}
			if u.Attempted != wantQueries {
				t.Errorf("untraced run attempted %d queries, want %d", u.Attempted, wantQueries)
			}
			for _, d := range endToEnd {
				mv, ok := u.EndToEnd[d.Name]
				if want := d.Name != "dist_single_ratio" || w.Baseline; ok != want {
					t.Errorf("end-to-end %s: reported %v, want %v", d.Name, ok, want)
				}
				if ok && mv.Unit != d.Unit {
					t.Errorf("end-to-end %s: unit %q, want %q", d.Name, mv.Unit, d.Unit)
				}
				if ok && d.Name != "failed_frac" && !(mv.Value > 0) {
					t.Errorf("end-to-end %s = %g, want > 0", d.Name, mv.Value)
				}
			}
			if len(u.EndToEnd) > len(endToEnd) {
				t.Errorf("undeclared end-to-end metrics in %v", u.EndToEnd)
			}
			for _, d := range perLayer {
				mv, ok := tr.PerLayer[d.Name]
				if want := layerApplies(d.Name, w); ok != want {
					t.Errorf("per-layer %s: reported %v, want %v", d.Name, ok, want)
				}
				if ok && mv.Unit != d.Unit {
					t.Errorf("per-layer %s: unit %q, want %q", d.Name, mv.Unit, d.Unit)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced run kept no spans")
			}
			if cov := tr.PerLayer["trace.coverage_pct"].Value; cov < 50 || cov > 100 {
				t.Errorf("trace.coverage_pct = %g", cov)
			}
		})
	}
}

// TestBenchmarkJSONMirrorsTheTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program runs from.
func TestBenchmarkJSONMirrorsTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > fullRunSeconds {
		t.Errorf("run_seconds %d: beyond the table's own pass counts", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, decls []metricDecl, bounded bool) {
		var want []metric
		for _, d := range decls {
			m := metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if bounded {
				if d.Driver == 0 {
					continue
				}
				b := d.Driver
				m.Bound = &b
			} else if !layerAppliesEverywhere(d.Name) {
				continue
			}
			want = append(want, m)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			same := g.Name == w.Name && g.Unit == w.Unit && g.Better == w.Better && (g.Bound == nil) == (w.Bound == nil)
			if same && w.Bound != nil {
				same = *g.Bound == *w.Bound && *g.Bound > 0 && *g.Bound <= 0.25
			}
			if !same {
				t.Errorf("%s %d: BENCHMARK.json has %s, declared %s", kind, i, fmtMetric(g.Name, g.Unit, g.Better, g.Bound), fmtMetric(w.Name, w.Unit, w.Better, w.Bound))
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics; the contract allows 128 and 16", len(bj.PerLayer), len(bj.EndToEnd))
	}
}

func fmtMetric(name, unit, better string, bound *float64) string {
	if bound == nil {
		return fmt.Sprintf("{%s %s %s}", name, unit, better)
	}
	return fmt.Sprintf("{%s %s %s bound %g}", name, unit, better, *bound)
}
