package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// The traced spines. Each does what the program's own entry point does,
// assembled from the layers' public functions with a span around every
// call, so a layer's cost is measured from outside without touching it.

// spineExecute is service.Execute: session, plan, bind, run, harvest,
// adaptation ledger.
func spineExecute(tr *tracer, svc *service.Service, l link, q int) (*engine.Table, service.JobStats, error) {
	st := service.JobStats{Query: q}
	if err := svc.Err(); err != nil {
		return nil, st, fmt.Errorf("service: %w", err)
	}
	sp := tpch.Query(q)

	o := tr.begin("core.session_build", l)
	s := svc.NewSession()
	o.end()

	start := time.Now()
	o = tr.begin("tpch.plan_build", l)
	b := sp.Plan(svc.DB())
	o.end()

	o = tr.begin("plan.bind", l)
	ex := b.Bind(s)
	o.end()

	o = tr.begin("engine.exec", l)
	tab, err := sp.Finish(b, ex)
	if tab != nil {
		o.s.Rows = int64(tab.Rows())
	}
	o.end()
	st.Latency = time.Since(start)
	if err != nil {
		return nil, st, fmt.Errorf("service: Q%02d: %w", q, err)
	}
	spineHarvest(tr, svc, l, s, &st)
	return tab, st, nil
}

// spineExecutePlan is service.ExecutePlan: the same spine for a plan that
// arrived over the wire, every root run, engine panics turned into errors.
func spineExecutePlan(tr *tracer, svc *service.Service, l link, b *plan.Builder) (tab *engine.Table, st service.JobStats, err error) {
	if err := svc.Err(); err != nil {
		return nil, st, fmt.Errorf("service: %w", err)
	}
	if len(b.Roots()) == 0 {
		return nil, st, fmt.Errorf("service: plan %s has no roots", b.Name())
	}
	o := tr.begin("core.session_build", l)
	s := svc.NewSession()
	o.end()

	start := time.Now()
	o = tr.begin("plan.bind", l)
	ex := b.Bind(s)
	o.end()

	o = tr.begin("engine.exec", l)
	func() {
		defer func() {
			if r := recover(); r != nil {
				tab, err = nil, fmt.Errorf("service: plan %s: %v", b.Name(), r)
			}
		}()
		for _, root := range b.Roots() {
			t, rerr := ex.Run(root.Node)
			if rerr != nil {
				tab, err = nil, fmt.Errorf("service: plan %s: %w", b.Name(), rerr)
				return
			}
			if tab == nil {
				tab = t
			}
		}
	}()
	if tab != nil {
		o.s.Rows = int64(tab.Rows())
	}
	o.end()
	st.Latency = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	spineHarvest(tr, svc, l, s, &st)
	return tab, st, nil
}

// spineHarvest is the tail both entry points share: fold the session's
// knowledge into the cache and read its adaptation ledger.
func spineHarvest(tr *tracer, svc *service.Service, l link, s *core.Session, st *service.JobStats) {
	o := tr.begin("service.harvest", l)
	svc.Cache().Harvest(s)
	o.end()

	o = tr.begin("core.adaptation_cost", l)
	st.PrimCycles = s.Ctx.PrimCycles
	st.Instances = len(s.AllInstances())
	st.AdaptiveCalls, st.OffBestCalls = adaptationCost(s)
	o.end()
	tr.countSession(s)
}

// switchExec is the server.Executor a benchmark server fronts. With no
// tracer installed it hands every call straight to the service, so the
// untraced numbers are the program's own path; with one installed it runs
// the traced spine, hung under the request the client announced.
type switchExec struct {
	svc   *service.Service
	shard int
	tr    atomic.Pointer[tracer]
}

func queryKey(q int) string { return fmt.Sprintf("Q%d", q) }

// planKey identifies one shipped plan on one shard: labels are plan
// positions, so the main root's label tells a query's fragment sites apart.
func planKey(b *plan.Builder, shard int) string {
	return fmt.Sprintf("%s#%d", b.MainRoot().Label(), shard)
}

func (x *switchExec) Execute(q int) (*engine.Table, service.JobStats, error) {
	tr := x.tr.Load()
	if tr == nil {
		return x.svc.Execute(q)
	}
	return spineExecute(tr, x.svc, tr.claim(queryKey(q)), q)
}

func (x *switchExec) ExecutePlan(b *plan.Builder) (*engine.Table, service.JobStats, error) {
	tr := x.tr.Load()
	if tr == nil || len(b.Roots()) == 0 {
		return x.svc.ExecutePlan(b)
	}
	return spineExecutePlan(tr, x.svc, tr.claim(planKey(b, x.shard)), b)
}

func (x *switchExec) DB() *tpch.DB                          { return x.svc.DB() }
func (x *switchExec) SeededInstances() (seeded, cold int64) { return x.svc.SeededInstances() }
func (x *switchExec) Cache() *service.FlavorCache           { return x.svc.Cache() }

// distSpine is dist.Coordinator.run with the coordinator's defaults:
// streamed fragments over the binary wire, four sites in flight.
type distSpine struct {
	svc     *service.Service // residual execution over the schema-only catalog
	clients []*server.Client
}

const (
	distSiteFanout = 4      // dist.Config.SiteFanout default
	distTimeoutMS  = 60_000 // dist.Config.FragmentTimeoutMS default
)

func newDistSpine(db *tpch.DB, sc service.Config, urls []string) (*distSpine, error) {
	svc := service.New(db.SchemaOnly(), sc)
	if err := svc.Err(); err != nil {
		return nil, err
	}
	d := &distSpine{svc: svc}
	for _, u := range urls {
		d.clients = append(d.clients, server.NewClient(u).WithRetry(server.DefaultRetry).WithBinaryWire(true))
	}
	return d, nil
}

func (d *distSpine) execute(tr *tracer, l link, q int) (*engine.Table, service.JobStats, error) {
	st := service.JobStats{Query: q}
	start := time.Now()
	sp := tpch.Query(q)

	o := tr.begin("tpch.plan_build", l)
	b := sp.Plan(d.svc.DB())
	o.end()

	o = tr.begin("plan.fragment_sites", l)
	sites := plan.FragmentSites(b)
	o.end()

	merged := make([]*engine.Table, len(sites))
	siteStats := make([]server.StatsJSON, len(sites))
	errs := make([]error, len(sites))
	sem := make(chan struct{}, distSiteFanout)
	var wg sync.WaitGroup
	for si, site := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			merged[si], siteStats[si], errs[si] = d.runSite(tr, l, site)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, st, fmt.Errorf("dist: Q%02d: %w", q, err)
		}
	}
	for _, sst := range siteStats {
		st.PrimCycles += sst.PrimCycles
		st.Instances += sst.Instances
		st.AdaptiveCalls += sst.AdaptiveCalls
		st.OffBestCalls += sst.OffBestCalls
	}

	o = tr.begin("core.session_build", l)
	s := d.svc.NewSession()
	o.end()

	o = tr.begin("plan.bind", l)
	ex := b.Bind(s)
	for si, site := range sites {
		if err := ex.Preset(site.Node, merged[si]); err != nil {
			o.end()
			return nil, st, err
		}
	}
	o.end()

	o = tr.begin("engine.residual", l)
	tab, err := sp.Finish(b, ex)
	o.end()
	st.Latency = time.Since(start)
	if err != nil {
		return nil, st, fmt.Errorf("dist: Q%02d: %w", q, err)
	}

	o = tr.begin("service.harvest", l)
	d.svc.Cache().Harvest(s)
	o.end()
	st.PrimCycles += s.Ctx.PrimCycles
	st.Instances += len(s.AllInstances())
	adaptive, offBest := core.AdaptationCost(s.AllInstances())
	st.AdaptiveCalls += adaptive
	st.OffBestCalls += offBest
	tr.countSession(s)
	return tab, st, nil
}

// runSite is Coordinator.runSite + fetchStream: encode the fragment once,
// stream every shard's partial into the accumulator, merge.
func (d *distSpine) runSite(tr *tracer, l link, site *plan.FragmentSite) (*engine.Table, server.StatsJSON, error) {
	so := tr.begin("dist.site", l)
	defer so.end()
	sl := so.under()

	o := tr.begin("plan.marshal", sl)
	wire, err := plan.MarshalPlan(site.Fragment)
	o.end()
	if err != nil {
		return nil, server.StatsJSON{}, fmt.Errorf("marshal fragment %s: %w", site.Table, err)
	}
	o = tr.begin("server.encode_request", sl)
	body, err := server.EncodePlanRequest(server.PlanRequest{Plan: wire, TimeoutMS: distTimeoutMS, IncludeResult: true})
	o.end()
	if err != nil {
		return nil, server.StatsJSON{}, fmt.Errorf("encode fragment %s: %w", site.Table, err)
	}

	acc := site.NewAccumulator(len(d.clients))
	shardStats := make([]server.StatsJSON, len(d.clients))
	errs := make([]error, len(d.clients))
	fo := tr.begin("dist.fetch", sl)
	var wg sync.WaitGroup
	for shi, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardStats[shi], errs[shi] = d.fetchShard(tr, fo.under(), site, acc, shi, cl, body)
		}()
	}
	wg.Wait()
	fo.end()
	for shi, err := range errs {
		if err != nil {
			return nil, server.StatsJSON{}, fmt.Errorf("shard %d: fragment %s: %w", shi, site.Table, err)
		}
	}
	o = tr.begin("plan.result", sl)
	m, err := acc.Result()
	o.end()
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	var sst server.StatsJSON
	for _, ss := range shardStats {
		sst.PrimCycles += ss.PrimCycles
		sst.Instances += ss.Instances
		sst.AdaptiveCalls += ss.AdaptiveCalls
		sst.OffBestCalls += ss.OffBestCalls
	}
	return m, sst, nil
}

func (d *distSpine) fetchShard(tr *tracer, l link, site *plan.FragmentSite, acc *plan.PartialAccumulator,
	shi int, cl *server.Client, body []byte) (server.StatsJSON, error) {
	fo := tr.begin("dist.shard_fetch", l)
	defer fo.end()
	fl := fo.under()
	tr.announce(planKey(site.Fragment, shi), fl)
	res, err := cl.PlanStreamEncoded(body, func(tj *server.TableJSON) error {
		var wireBytes int64
		if tr.audit { // what this partial weighs in the binary wire form it arrived in
			if bin, err := server.MarshalTableBin(tj); err == nil {
				wireBytes = int64(len(bin))
			}
		}
		o := tr.begin("server.decode_table", fl)
		tab, derr := server.DecodeTable(tj)
		o.s.Rows, o.s.Bytes = int64(tj.Rows), wireBytes
		o.end()
		if derr != nil {
			return derr
		}
		o = tr.begin("plan.add_chunk", fl)
		defer o.end()
		return acc.AddChunk(shi, tab)
	})
	if err != nil {
		return server.StatsJSON{}, err
	}
	fo.s.RemoteUS = max(res.Stats.LatencyUS, 1)
	o := tr.begin("plan.finish_shard", fl)
	defer o.end()
	return res.Stats, acc.FinishShard(shi)
}
