package main

import (
	"fmt"
	"slices"
	"strings"
)

// Topologies a workload can run on.
const (
	topoEmbedded = "embedded" // in-process service.Execute
	topoServed   = "served"   // server.Start on loopback + server.Client
	topoDist     = "dist"     // dist.Coordinator over in-process shard servers
)

// workload is one row of the workload table. The table is data: one
// measuring loop (run.go) consumes every row, and BENCHMARK.json mirrors
// the names and reasons (a test keeps the two in step).
type workload struct {
	Name     string
	SF       float64 // TPC-H scale factor
	Mix      []int   // TPC-H query numbers, one seeded permutation per pass
	Encoded  bool    // service.Config.EncodedStorage
	P        int     // service.Config.PipelineParallelism
	Topology string
	Shards   int  // topoDist: fleet size
	Clients  int  // closed-loop clients; each waits for its reply
	Passes   int  // measured passes per client at -passes-scale 1
	Warmup   int  // warm-up passes before timing (the first one is the cold pass)
	Baseline bool // interleave the same mix on a single-process service
	Why      string
}

func allQueries() []int {
	qs := make([]int, 22)
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}

// fullRunSeconds is about how long the table's pass counts measure for on
// the reference box. Runs are bounded by count, never by time, so that two
// commits execute identical work; `-seconds S` scales every pass count by
// S/fullRunSeconds, the one common factor, which BENCHMARK.json records as
// its run_seconds.
const fullRunSeconds = 20

// workloads is the workload table. Names are fixed; later issues cite them.
var workloads = []workload{
	{
		Name: "embed-short", SF: 0.01, Mix: []int{2, 6, 11, 14, 15, 17, 22}, P: 1,
		Topology: topoEmbedded, Clients: 1, Passes: 1200, Warmup: 4,
		Why: "every query ends within a few ms, so per-query fixed cost (session build, plan build, bind, harvest) is a large share of latency and kernels barely register",
	},
	{
		Name: "embed-large", SF: 0.05, Mix: []int{1, 6, 9, 19, 21}, P: 1,
		Topology: topoEmbedded, Clients: 1, Passes: 60, Warmup: 2,
		Why: "5x the rows: engine operators, primitive kernels and the chooser do the work and per-query fixed cost is about 1% of latency, so session pooling must not show here",
	},
	{
		Name: "embed-encoded-p2", SF: 0.05, Mix: []int{1, 6, 9, 19, 21}, Encoded: true, P: 2,
		Topology: topoEmbedded, Clients: 1, Passes: 45, Warmup: 2,
		Why: "the same engine over compressed storage with two pipeline partitions: a kernel or arena change that helps flat serial scans but costs encoded or partitioned ones shows here",
	},
	{
		Name: "served-mix", SF: 0.01, Mix: allQueries(), P: 1,
		Topology: topoServed, Clients: 2, Passes: 90, Warmup: 4,
		Why: "what a madaptd user feels: plan decode, admission, execution, table encoding, fingerprint and HTTP, with two clients contending lightly for the flavor cache and the workers",
	},
	{
		Name: "dist-n2", SF: 0.01, Mix: []int{1, 3, 6, 12, 14, 19}, P: 1,
		Topology: topoDist, Shards: 2, Clients: 1, Passes: 150, Warmup: 4, Baseline: true,
		Why: "fragment lowering, shard execution, the streamed binary wire, partial merge and residual; a transport change must move this workload and no other",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDecl declares one metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference value by which an end-to-end
	// metric may get worse before compare calls it regressed. Two runs of
	// one seed execute identical work, so the counters repeat and their
	// bounds are tight. Times do not repeat: on the reference box two runs
	// of one commit differ by up to 22 % and the slices of one run spread
	// by 3-22 % (README.md, "Reference numbers"), so a bound of 10 % would
	// make every other row unresolved whatever the code did. Per-layer
	// metrics have no bound.
	Bound float64
	// SharedBound, where set, replaces Bound on served-mix and dist-n2:
	// two clients or two shards interleave there, and what the bandits
	// observe depends on the order they were served in.
	SharedBound float64
	// Driver is the metric's bound in BENCHMARK.json; 0 keeps it out of
	// that file. The driver compares medians over ten seeds, and another
	// seed is another database and another run of exploration draws, so a
	// counter that repeats exactly under one seed still spreads there:
	// these bounds are at least two and a half times the widest spread
	// measured over ten seeds (README.md, "Reference numbers"). Three metrics cannot be held
	// to the driver's rules at all and stay out: failed_frac is 0 by design
	// (the driver reads failed/attempted), dist_single_ratio exists on one
	// workload, and off_best_pct, a few per cent on three workloads, moves
	// by a quarter to one and a half times itself from seed to seed.
	Driver float64
}

func (d metricDecl) boundOn(workload string) float64 {
	if w, ok := workloadByName(workload); ok && d.SharedBound > 0 && (w.Clients > 1 || w.Shards > 1) {
		return d.SharedBound
	}
	return d.Bound
}

// endToEnd are the metrics a user of the system sees. Same names on every
// workload; only dist-n2 carries dist_single_ratio.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Driver: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Driver: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25, Driver: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.01, Driver: 0.02},
	{Name: "alloc_kb_per_query", Unit: "KiB", Better: "lower", Bound: 0.02, Driver: 0.02},
	{Name: "retained_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Driver: 0.05},
	{Name: "off_best_pct", Unit: "%", Better: "lower", Bound: 0.02, SharedBound: 0.10},
	{Name: "virt_cycles_per_query", Unit: "cycles", Better: "lower", Bound: 0.02, SharedBound: 0.05, Driver: 0.05},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "dist_single_ratio", Unit: "ratio", Better: "lower", Bound: 0.10},
}

// perLayer lists every per-layer metric, layer = module name. README.md
// says which end-to-end metric each should move and on which workload.
// A traced run emits the ones its workload exercises and no others.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	lo := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "higher"} }
	ms := []metricDecl{
		lo("tpch.generate_s", "s"), lo("tpch.plan_build_us", "us"),
	}
	for q := 1; q <= 22; q++ {
		ms = append(ms, lo(fmt.Sprintf("tpch.q%02d_p50_ms", q), "ms"))
	}
	ms = append(ms,
		lo("plan.bind_us", "us"), lo("plan.unmarshal_us", "us"), lo("plan.marshal_us", "us"),
		lo("plan.fragment_sites_us", "us"), lo("plan.accumulate_ms", "ms"), lo("plan.nodes_per_query", "count"),

		lo("core.session_build_us", "us"), lo("core.session_build_allocs", "count"),
		lo("core.instances_per_query", "count"), lo("core.prim_calls_per_query", "count"),
		lo("core.tuples_per_query", "count"), lo("core.adaptive_calls_per_query", "count"),
		lo("core.off_best_calls_per_query", "count"), lo("core.decisions_per_query", "count"),
		lo("core.run_overhead_ns_per_call", "ns"),

		lo("hw.new_cache_us", "us"), lo("hw.new_cache_allocs", "count"), lo("hw.cache_access_ns", "ns"),

		lo("primitive.dictionary_build_ms", "ms"),
		lo("primitive.sel_branch_ns_per_tuple", "ns"), lo("primitive.sel_nobranch_ns_per_tuple", "ns"),
		lo("primitive.decompress_eager_ns_per_tuple", "ns"), lo("primitive.decompress_lazy_ns_per_tuple", "ns"),

		lo("policy.choose_observe_ns", "ns"),

		lo("engine.exec_ms", "ms"), lo("engine.exec_allocs", "count"), lo("engine.exec_alloc_kb", "KiB"),
		lo("engine.ns_per_prim_call", "ns"), lo("engine.result_rows_per_query", "count"),
		lo("engine.residual_ms", "ms"),

		lo("storage.encode_s", "s"), lo("storage.flat_mb", "MiB"), lo("storage.resident_mb", "MiB"),
		hi("storage.compression_ratio", "ratio"),

		lo("service.execute_ms", "ms"), lo("service.harvest_us", "us"),
		hi("service.cache_hit_rate_pct", "%"), lo("service.cache_keys", "count"),
		lo("service.cold_off_best_pct", "%"), lo("service.cold_pass_ms", "ms"),
		lo("service.unattributed_us", "us"),

		lo("server.roundtrip_ms", "ms"), lo("server.inside_p50_ms", "ms"),
		lo("server.queue_wait_p50_us", "us"), lo("server.queue_wait_p99_us", "us"),
		hi("server.admitted", "count"), lo("server.shed", "count"),
		lo("server.transport_overhead_ms", "ms"),
		lo("server.encode_table_us", "us"), lo("server.decode_table_us", "us"),
		lo("server.marshal_bin_us", "us"), lo("server.unmarshal_bin_us", "us"),
		lo("server.fingerprint_us", "us"), lo("server.response_bytes_per_query", "count"),

		lo("dist.sites_per_query", "count"), lo("dist.fragments_per_query", "count"),
		lo("dist.chunks_per_query", "count"), lo("dist.fallbacks", "count"),
		lo("dist.fetch_ms", "ms"), lo("dist.shard_exec_ms", "ms"), lo("dist.wire_overhead_ms", "ms"),
		lo("dist.partial_rows_per_query", "count"), lo("dist.partial_bytes_per_query", "count"),
		lo("dist.ttfc_p50_ms", "ms"), lo("dist.ttfc_p99_ms", "ms"),
		lo("dist.fragment_p50_ms", "ms"), lo("dist.fragment_p99_ms", "ms"),

		lo("goruntime.gc_cpu_frac", "ratio"), lo("goruntime.gc_cycles_per_s", "1/s"),
		lo("goruntime.heap_peak_mb", "MiB"), lo("goruntime.goroutines_end", "count"),
		hi("goruntime.machine_speed_index", "ratio"),

		lo("trace.overhead_pct", "%"), hi("trace.coverage_pct", "%"),
	)
	return ms
}

// layerApplies says whether a workload exercises what a per-layer metric
// measures. A traced run emits exactly the metrics that apply.
func layerApplies(name string, w workload) bool {
	var q int
	switch {
	case strings.HasPrefix(name, "tpch.q"):
		_, _ = fmt.Sscanf(name, "tpch.q%d_p50_ms", &q) // no match leaves q 0, which no mix holds
		return slices.Contains(w.Mix, q)
	case strings.HasPrefix(name, "dist."), name == "plan.accumulate_ms", name == "engine.residual_ms":
		return w.Topology == topoDist
	case name == "storage.encode_s":
		return w.Encoded
	case strings.HasPrefix(name, "server.roundtrip"), strings.HasPrefix(name, "server.inside"),
		strings.HasPrefix(name, "server.queue_wait"), name == "server.admitted", name == "server.shed",
		name == "server.transport_overhead_ms":
		return w.Topology != topoEmbedded
	}
	return true
}

// layerAppliesEverywhere picks the per-layer metrics BENCHMARK.json lists:
// the driver wants every listed metric from every workload, so the list
// holds the ones every workload exercises. The rest (dist.*, the HTTP side
// of server.*, most tpch.qNN) are in the native report only.
func layerAppliesEverywhere(name string) bool {
	for _, w := range workloads {
		if !layerApplies(name, w) {
			return false
		}
	}
	return true
}

func declByName(decls []metricDecl, name string) (metricDecl, bool) {
	for _, d := range decls {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}
