package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/primitive"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/storage"
	"microadapt/internal/tpch"
	"microadapt/internal/vector"
)

// A probe times one layer's public function standalone, where the layer
// sits behind HTTP or inside a loop and cannot be spanned from outside.
// Everything the function needs — dictionary, session, input vectors,
// result tables — is built by prepare, before the timed region; the timed
// region is calls to the returned function and nothing else.
type probe struct {
	name    string  // metric that gets ns per op / perOp
	allocs  string  // metric that gets heap allocations per op ("" for none)
	perOp   float64 // ns per op are divided by this: a unit change, or the tuples one op handles
	mix     bool    // one op sweeps the workload's mix; report per query
	prepare func(e *env) func()
}

// probeResult is one probe's timed region.
type probeResult struct {
	iters       int
	nsPerOp     float64
	allocsPerOp float64
}

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink any

// timeProbe calls fn in doubling batches until budget has passed and
// reports the mean over every call made.
func timeProbe(budget time.Duration, fn func()) probeResult {
	fn() // first call pays lazy initialisation; not timed
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	iters := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		iters += batch
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return probeResult{
		iters:       iters,
		nsPerOp:     float64(elapsed) / float64(iters),
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
	}
}

const labVector = 1024 // flavor-lab vector size

// selectionLab prepares one flavor of the sint < const selection primitive
// over a vector of n tuples the predicate keeps half of, called directly or
// through Instance.Run with a chooser pinned to that flavor.
func selectionLab(flavor, n int, viaInstance bool) func() {
	d := primitive.NewDictionary(primitive.BranchSet())
	s := core.NewSession(d, hw.Machine1(), core.WithVectorSize(labVector),
		core.WithChooser(func(int) core.Chooser { return core.NewFixed(flavor) }))
	inst := s.Instance("select_<_sint_col_sint_val", "lab")
	fl := inst.Prim.Flavors[flavor]
	rng := rand.New(rand.NewSource(7))
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(100))
	}
	call := &core.Call{N: n, In: []*vector.Vector{vector.FromI32(col), vector.ConstI32(50)},
		SelOut: make([]int32, n), Inst: inst}
	if viaInstance {
		return func() { inst.Run(s.Ctx, call) }
	}
	return func() { fl.Fn(s.Ctx, call) }
}

// decompressLab prepares one decompression flavor over a dictionary-coded
// sint column, with a selection vector keeping every other row.
func decompressLab(flavor string) func() {
	d := primitive.NewDictionary(primitive.DecompressSet())
	s := core.NewSession(d, hw.Machine1(), core.WithVectorSize(labVector))
	inst := s.Instance(primitive.DecompressSig(vector.I32), "lab")
	fl := inst.Prim.Flavors[inst.Prim.FlavorIndex(flavor)]
	rng := rand.New(rand.NewSource(7))
	vals := make([]int32, 16*labVector)
	for i := range vals {
		vals[i] = int32(rng.Intn(64)) * 1000
	}
	enc := storage.EncodeColumn(vector.FromI32(vals))
	sel := make([]int32, 0, labVector/2)
	for i := 0; i < labVector; i += 2 {
		sel = append(sel, int32(i))
	}
	res := vector.New(vector.I32, labVector)
	res.SetLen(labVector)
	call := &core.Call{N: labVector, Sel: sel, Res: res, Inst: inst,
		Aux: &primitive.DecompressArgs{Col: enc, Lo: 4 * labVector}}
	return func() { fl.Fn(s.Ctx, call) }
}

// mixPlans builds the workload's plans once.
func mixPlans(e *env) []*plan.Builder {
	bs := make([]*plan.Builder, len(e.w.Mix))
	for i, q := range e.w.Mix {
		bs[i] = tpch.Query(q).Plan(e.db)
	}
	return bs
}

// truthTables are the workload's own result tables, in mix order.
func truthTables(e *env) []*server.TableJSON {
	tjs := make([]*server.TableJSON, len(e.w.Mix))
	for i, q := range e.w.Mix {
		tjs[i] = server.EncodeTable(e.truth[q])
	}
	return tjs
}

// probes lists every probe.
func probes() []probe {
	return []probe{
		{name: "hw.new_cache_us", allocs: "hw.new_cache_allocs", perOp: 1e3, prepare: func(*env) func() {
			m := hw.Machine1()
			return func() { probeSink = hw.NewCache(m.LLCBytes, m.CacheLine, 8) }
		}},
		{name: "hw.cache_access_ns", perOp: 1024, prepare: func(*env) func() {
			m := hw.Machine1()
			c := hw.NewCache(m.LLCBytes, m.CacheLine, 8)
			addr := uint64(0)
			return func() {
				for i := 0; i < 1024; i++ {
					addr += uint64(m.CacheLine) * 3
					c.Access(addr)
				}
			}
		}},
		{name: "primitive.dictionary_build_ms", perOp: 1e6, prepare: func(*env) func() {
			o := primitive.Everything()
			return func() { probeSink = primitive.NewDictionary(o) }
		}},
		{name: "primitive.sel_branch_ns_per_tuple", perOp: labVector, prepare: func(*env) func() { return selectionLab(0, labVector, false) }},
		{name: "primitive.sel_nobranch_ns_per_tuple", perOp: labVector, prepare: func(*env) func() { return selectionLab(1, labVector, false) }},
		{name: "primitive.decompress_eager_ns_per_tuple", perOp: labVector, prepare: func(*env) func() { return decompressLab("eager") }},
		{name: "primitive.decompress_lazy_ns_per_tuple", perOp: labVector, prepare: func(*env) func() { return decompressLab("lazy") }},
		{name: "policy.choose_observe_ns", perOp: 1, prepare: func(*env) func() {
			vw := core.NewVWGreedy(2, service.DefaultConfig().VW, rand.New(rand.NewSource(7)))
			return func() {
				arm := vw.Choose(core.ChooseContext{})
				vw.Observe(core.Observation{Arm: arm, Tuples: labVector, Cycles: float64(4000 + 500*arm)})
			}
		}},
		{name: "plan.marshal_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			bs := mixPlans(e)
			return func() {
				for _, b := range bs {
					probeSink, _ = plan.MarshalPlan(b)
				}
			}
		}},
		{name: "plan.unmarshal_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			var wires [][]byte
			for _, b := range mixPlans(e) {
				w, err := plan.MarshalPlan(b)
				if err != nil {
					panic(err) // every TPC-H plan marshals; the repo's own tests pin that
				}
				wires = append(wires, w)
			}
			return func() {
				for _, w := range wires {
					probeSink, _ = plan.UnmarshalPlan(w, e.db.TableByName)
				}
			}
		}},
		{name: "plan.fragment_sites_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			bs := mixPlans(e)
			return func() {
				for _, b := range bs {
					probeSink = plan.FragmentSites(b)
				}
			}
		}},
		{name: "server.encode_table_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			return func() {
				for _, q := range e.w.Mix {
					probeSink, _ = json.Marshal(server.EncodeTable(e.truth[q]).EscapeNonFinite())
				}
			}
		}},
		{name: "server.decode_table_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			tjs := truthTables(e)
			return func() {
				for _, tj := range tjs {
					probeSink, _ = server.DecodeTable(tj)
				}
			}
		}},
		{name: "server.marshal_bin_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			tjs := truthTables(e)
			return func() {
				for _, tj := range tjs {
					probeSink, _ = server.MarshalTableBin(tj)
				}
			}
		}},
		{name: "server.unmarshal_bin_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			var bins [][]byte
			for _, tj := range truthTables(e) {
				b, err := server.MarshalTableBin(tj)
				if err != nil {
					panic(err) // result tables of the 22 queries always encode
				}
				bins = append(bins, b)
			}
			return func() {
				for _, b := range bins {
					probeSink, _ = server.UnmarshalTableBin(b)
				}
			}
		}},
		{name: "server.fingerprint_us", perOp: 1e3, mix: true, prepare: func(e *env) func() {
			return func() {
				for _, q := range e.w.Mix {
					probeSink = server.Fingerprint(e.truth[q])
				}
			}
		}},
	}
}

// runProbes times every probe and files the results under their metric
// names.
func runProbes(e *env, res *workloadResult, budget time.Duration) {
	put := func(name string, v float64, iters int) {
		res.put(res.PerLayer, perLayer, name, v)
		mv := res.PerLayer[name]
		mv.Iters = iters
		res.PerLayer[name] = mv
	}
	for _, p := range probes() {
		r := timeProbe(budget, p.prepare(e))
		div := p.perOp
		if p.mix {
			div *= float64(len(e.w.Mix))
		}
		put(p.name, r.nsPerOp/div, r.iters)
		if p.allocs != "" {
			put(p.allocs, r.allocsPerOp, r.iters)
		}
	}
	// What Instance.Run adds around the kernel it picks: chooser, APH,
	// profiling counters, cost bookkeeping. The vector is short so that the
	// kernel does not drown the difference, and the two sides alternate so
	// that they share the machine's weather.
	const rounds = 5
	direct, via := selectionLab(0, 16, false), selectionLab(0, 16, true)
	var diffs []float64
	iters := 0
	for i := 0; i < rounds; i++ {
		d, v := timeProbe(budget/rounds, direct), timeProbe(budget/rounds, via)
		diffs = append(diffs, v.nsPerOp-d.nsPerOp)
		iters += v.iters
	}
	put("core.run_overhead_ns_per_call", median(diffs), iters)

	// The JSON body a server would answer each query of the mix with.
	var bytes int
	for _, q := range e.w.Mix {
		tab := e.truth[q]
		body, err := json.Marshal(server.QueryResponse{Query: q, Rows: tab.Rows(), Fingerprint: e.want[q],
			Result: server.EncodeTable(tab).EscapeNonFinite()})
		if err == nil {
			bytes += len(body)
		}
	}
	put("server.response_bytes_per_query", float64(bytes)/float64(len(e.w.Mix)), 0)
}
