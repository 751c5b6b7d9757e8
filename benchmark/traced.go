package main

import (
	"fmt"
	"runtime"

	"microadapt/internal/server"
	"microadapt/internal/tpch"
)

// tracedShare is the traced run's share of the table's passes: tracing
// needs enough requests for a median per layer, not for a p95.
const tracedShare = 0.25

// runTraced measures the per-layer metrics of one workload. Slice by slice
// it alternates a reference block through the program's own entry point
// with a block through the traced spine, so the two see the same machine
// weather and their difference is the tracing overhead. An untimed audit
// pass then reads allocation counters around every span, and the probes
// time what sits behind HTTP.
func runTraced(w workload, opt options) (*workloadResult, error) {
	e, err := setup(w, opt.seed, opt.cal)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer e.close()

	tr := newTracer(false)
	passes := scaledPasses(w.Passes, opt.passesScale*tracedShare)
	ref := &lane{r: e.runner(nil), clients: w.Clients, passes: passes}
	traced := &lane{r: e.runner(tr), clients: w.Clients, passes: passes,
		enter: func() { e.setTracer(tr) }, leave: func() { e.setTracer(nil) }}
	seeded0, cold0 := e.seededInstances()
	admitted0, shed0 := e.admission()
	e.measure([]*lane{ref, traced}, opt.cal)
	seeded1, cold1 := e.seededInstances()
	admitted1, shed1 := e.admission()
	goroutines := runtime.NumGoroutine()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	audit := newTracer(true)
	e.setTracer(audit)
	ar := e.runner(audit)
	for _, q := range w.Mix {
		if o, err := ar(0, 0, q); err != nil || !e.verify(o, q, true) {
			e.setTracer(nil)
			return nil, fmt.Errorf("%s: audit pass: Q%02d failed (%v)", w.Name, q, err)
		}
	}
	e.setTracer(nil)

	rs, ts := ref.stats(), traced.stats()
	res := &workloadResult{
		Name: w.Name, Attempted: rs.attempted + ts.attempted, Failed: rs.failed + ts.failed,
		Samples: ts.completed, TailPct: ts.tailPct, Passes: passes, Speed: median(rs.speeds), PerLayer: map[string]metricValue{},
	}
	if ts.completed == 0 || rs.completed == 0 {
		return res, fmt.Errorf("%s: no query completed", w.Name)
	}
	put := func(name string, v float64, sl ...float64) { res.put(res.PerLayer, perLayer, name, v, sl...) }

	spans, counts := tr.snapshot()
	res.spans = spans
	reqs, totals := foldRequests(spans)
	auditSpans, _ := audit.snapshot()
	auditReqs, _ := foldRequests(auditSpans)
	nreq := float64(len(reqs))

	// spanP50 is the median duration of one call into a layer; reqP50 the
	// median over requests of everything the request spent under the names.
	spanP50 := func(name string) float64 {
		var ds []float64
		for _, s := range spans {
			if s.Name == name {
				ds = append(ds, float64(s.dur()))
			}
		}
		return median(ds)
	}
	reqP50 := func(names ...string) float64 {
		var ds []float64
		for _, r := range reqs {
			var d int64
			for _, n := range names {
				d += r.dur[n]
			}
			ds = append(ds, float64(d))
		}
		return median(ds)
	}
	reqMean := func(f func(*requestView) float64, rs []*requestView) float64 {
		var sum float64
		for _, r := range rs {
			sum += f(r)
		}
		return sum / float64(max(len(rs), 1))
	}

	// tpch
	put("tpch.generate_s", e.generateS)
	put("tpch.plan_build_us", spanP50("tpch.plan_build")/1e3)
	for _, q := range w.Mix {
		var ls []float64
		for _, r := range reqs {
			if r.query == q {
				ls = append(ls, float64(r.latency))
			}
		}
		put(fmt.Sprintf("tpch.q%02d_p50_ms", q), median(ls)/1e6)
	}

	// plan
	put("plan.bind_us", spanP50("plan.bind")/1e3)
	var nodes int
	for _, q := range w.Mix {
		nodes += len(tpch.Query(q).Plan(e.db).Nodes())
	}
	put("plan.nodes_per_query", float64(nodes)/float64(len(w.Mix)))

	// core
	put("core.session_build_us", spanP50("core.session_build")/1e3)
	put("core.session_build_allocs", reqMean(func(r *requestView) float64 { return float64(r.allocs["core.session_build"]) }, auditReqs))
	put("core.instances_per_query", float64(counts.instances)/nreq)
	put("core.prim_calls_per_query", float64(counts.primCalls)/nreq)
	put("core.tuples_per_query", float64(counts.tuples)/nreq)
	put("core.adaptive_calls_per_query", float64(counts.adaptive)/nreq)
	put("core.off_best_calls_per_query", float64(counts.offBest)/nreq)
	put("core.decisions_per_query", float64(counts.decisions)/nreq)

	// engine. The audit figures take the execution span that hangs directly
	// under the request: on dist-n2 that is the residual, the one execution
	// no shard runs concurrently with.
	put("engine.exec_ms", reqP50("engine.exec")/1e6)
	put("engine.exec_allocs", reqMean(func(r *requestView) float64 {
		return float64(r.allocs["engine.exec"] + r.allocs["engine.residual"])
	}, auditReqs))
	put("engine.exec_alloc_kb", reqMean(func(r *requestView) float64 {
		return float64(r.allocKB["engine.exec"] + r.allocKB["engine.residual"])
	}, auditReqs))
	put("engine.ns_per_prim_call", float64(totals.self["engine.exec"]+totals.self["engine.residual"])/float64(max(counts.primCalls, 1)))
	var rows int
	for _, q := range w.Mix {
		rows += e.truth[q].Rows()
	}
	put("engine.result_rows_per_query", float64(rows)/float64(len(w.Mix)))

	// storage
	flat, resident := e.db.StorageFootprint()
	put("storage.flat_mb", float64(flat)/(1<<20))
	put("storage.resident_mb", float64(resident)/(1<<20))
	put("storage.compression_ratio", float64(flat)/float64(max(resident, 1)))
	if w.Encoded {
		put("storage.encode_s", e.encodeS)
	}

	// service
	put("service.execute_ms", reqP50("core.session_build", "tpch.plan_build", "plan.bind", "engine.exec",
		"engine.residual", "service.harvest", "core.adaptation_cost")/1e6)
	put("service.harvest_us", spanP50("service.harvest")/1e3)
	put("service.cache_hit_rate_pct", 100*float64(seeded1-seeded0)/float64(max(seeded1-seeded0+cold1-cold0, 1)))
	put("service.cache_keys", float64(e.cache().Len()))
	put("service.cold_off_best_pct", e.coldOffBestPct)
	put("service.cold_pass_ms", e.coldPassMS)
	var unattributed []float64
	var rootSelf, latency int64
	for _, r := range reqs {
		unattributed = append(unattributed, float64(r.rootSelf))
		rootSelf += r.rootSelf
		latency += r.latency
	}
	put("service.unattributed_us", median(unattributed)/1e3)

	// server: only where requests cross HTTP. On served-mix the call is the
	// client's request; on dist-n2 it is one shard's fragment stream.
	if w.Topology != topoEmbedded {
		call := rootSpan
		if w.Topology == topoDist {
			call = "dist.shard_fetch"
		}
		var trip, inside, over []float64
		for _, s := range spans {
			if s.Name == call && s.RemoteUS > 0 {
				trip = append(trip, float64(s.dur())/1e6)
				inside = append(inside, float64(s.RemoteUS)/1e3)
				over = append(over, float64(s.dur())/1e6-float64(s.RemoteUS)/1e3)
			}
		}
		put("server.roundtrip_ms", median(trip))
		put("server.inside_p50_ms", median(inside))
		put("server.transport_overhead_ms", median(over))
		p50, p99 := e.queueWait()
		put("server.queue_wait_p50_us", p50)
		put("server.queue_wait_p99_us", p99)
		put("server.admitted", float64(admitted1-admitted0))
		put("server.shed", float64(shed1-shed0))
	}

	// dist
	if w.Topology == topoDist {
		count := func(name string) float64 {
			return reqMean(func(r *requestView) float64 { return float64(r.count[name]) }, reqs)
		}
		put("engine.residual_ms", reqP50("engine.residual")/1e6)
		put("plan.accumulate_ms", reqP50("plan.add_chunk", "plan.finish_shard", "plan.result")/1e6)
		put("dist.sites_per_query", count("dist.site"))
		put("dist.fragments_per_query", count("dist.shard_fetch"))
		put("dist.chunks_per_query", count("server.decode_table"))
		put("dist.fetch_ms", reqP50("dist.fetch")/1e6)
		var exec, wire []float64
		for _, r := range reqs {
			exec = append(exec, float64(r.remoteUS)/1e3)
			wire = append(wire, float64(r.dur["dist.fetch"])/1e6-float64(r.remoteUS)/1e3)
		}
		put("dist.shard_exec_ms", median(exec))
		put("dist.wire_overhead_ms", median(wire))
		put("dist.partial_rows_per_query", reqMean(func(r *requestView) float64 { return float64(r.rows["server.decode_table"]) }, reqs))
		put("dist.partial_bytes_per_query", reqMean(func(r *requestView) float64 { return float64(r.bytes["server.decode_table"]) }, auditReqs))
		fleet := e.coord.Fleet()
		put("dist.fallbacks", float64(fleet.FragmentAttempts-fleet.FragmentsSent))
		put("dist.ttfc_p50_ms", fleet.TTFCP50US/1e3)
		put("dist.ttfc_p99_ms", fleet.TTFCP99US/1e3)
		put("dist.fragment_p50_ms", fleet.FragmentP50US/1e3)
		put("dist.fragment_p99_ms", fleet.FragmentP99US/1e3)
	}

	// goruntime, over the reference blocks: what the program costs the
	// runtime when nobody is tracing it.
	put("goruntime.gc_cpu_frac", rs.used.gcCPUS/max(rs.used.allCPUS, 1e-9))
	put("goruntime.gc_cycles_per_s", float64(rs.used.gcCycles)/rs.wallS)
	put("goruntime.heap_peak_mb", float64(m.HeapSys-m.HeapReleased)/(1<<20))
	put("goruntime.goroutines_end", float64(goroutines))
	put("goruntime.machine_speed_index", median(rs.speeds), rs.speeds...)

	// trace: validity of the rows above.
	// Query by query, how much longer the spine took than the program's own
	// entry point in the same run; the median over the mix. (The two lanes'
	// median latencies, a few dozen samples of a mix whose queries differ
	// tenfold, would differ by +-10 % of their own accord.)
	refQ, tracedQ := ref.queryP50(), traced.queryP50()
	var over []float64
	for q, r := range refQ {
		over = append(over, 100*(tracedQ[q]-r)/r)
	}
	put("trace.overhead_pct", median(over))
	put("trace.coverage_pct", 100*(1-float64(rootSelf)/float64(max(latency, 1))))

	runProbes(e, res, opt.probeBudget)
	return res, res.check()
}

// serverMetrics reads /metrics, in process, of every server the workload
// runs behind.
func (e *env) serverMetrics() []server.MetricsSnapshot {
	var out []server.MetricsSnapshot
	if e.front != nil {
		out = append(out, e.front.Server.Metrics())
	}
	for _, sh := range e.shards {
		out = append(out, sh.run.Server.Metrics())
	}
	return out
}

// admission sums the executed and shed counts of those servers.
func (e *env) admission() (admitted, shed int64) {
	for _, m := range e.serverMetrics() {
		admitted += m.Admission.Executed
		shed += m.Admission.Shed
	}
	return admitted, shed
}

// queueWait is the longest admission-queue wait percentiles among them,
// in microseconds. They are the servers' own figures, taken when the run
// ends: each server keeps its most recent 1024 waits, so a run shorter than
// that still holds some from the warm-up.
func (e *env) queueWait() (p50, p99 float64) {
	for _, m := range e.serverMetrics() {
		p50, p99 = max(p50, m.QueueWaitP50US), max(p99, m.QueueWaitP99US)
	}
	return p50, p99
}
