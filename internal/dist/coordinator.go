// Package dist is the sharded distributed execution tier: a coordinator
// that fronts N shard processes, each an ordinary madaptd serving a
// contiguous row-range of every TPC-H table (tpch.DB.Shard).
//
// The coordinator plans queries against a schema-only catalog, derives
// per-shard plan fragments at the base-table scans (plan.FragmentSites),
// fans the fragments out over madaptd's streaming plan endpoint
// (/v1/plan/stream), merges the partial tables bit-identically
// (concatenation in shard order, or exact partial-aggregate folding),
// presets the merged results into the original plan's executor, and runs
// the residual — joins, final aggregates, delivery steps — locally.
// Results are byte-for-byte the tables a single process produces.
//
// Micro-adaptivity crosses the process boundary twice. Shard-side
// fragments carry the original plan's node labels, so their primitive
// instances learn under the same partition-free cache keys as a
// single-process run; the coordinator's residual session learns the
// non-fragment instances. Federation (gossip.go) then exchanges
// FlavorCache snapshots through /v1/flavors, so a shard joining cold
// warm-starts from the fleet's knowledge.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

const (
	// fragmentTimeoutMS bounds one fragment round trip on the shard.
	fragmentTimeoutMS = 60_000
	// latencyWindow is the sample capacity of each per-shard fragment
	// round-trip window and of the time-to-first-chunk window.
	latencyWindow = 1024
	// siteFanout bounds how many independent fragment sites of one query
	// execute concurrently.
	siteFanout = 4
)

// Config parameterizes a Coordinator.
type Config struct {
	// Shards are the shard base URLs in shard order. Shard i must hold
	// tpch DB.Shard(i, len(Shards)) of the same generated database —
	// range order is what makes concatenated partials bit-identical.
	// Required, at least one.
	Shards []string
	// DB is the coordinator's catalog. Only its schema matters: the
	// coordinator plans and validates against a zero-row SchemaOnly view,
	// and every base-table row it processes arrives from a shard.
	// Required.
	DB *tpch.DB
	// Service configures the residual-execution service (policy, flavors,
	// vector size, warm start). Zero value takes service defaults.
	Service service.Config
}

// shardConn is one shard's client plus its observability.
type shardConn struct {
	url    string
	client *server.Client
	lat    *stats.Window // fragment round-trip time, ns
}

// Coordinator fans plan fragments out to shards and finishes queries
// locally. It implements server.Executor, so madaptd serves the same
// HTTP surface in coordinator mode as in single-process mode, and
// server.FleetReporter, so /metrics grows a fleet section.
type Coordinator struct {
	svc    *service.Service
	shards []*shardConn

	fragments      atomic.Int64 // fragments dispatched (one per site x shard)
	ttfc           *stats.Window
	gossipRounds   atomic.Int64
	gossipImported atomic.Int64

	gossipOnce sync.Once
	gossipStop chan struct{}
	gossipDone chan struct{}
}

// New builds a coordinator over the given shard fleet. It does not touch
// the network — WaitReady waits for the fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("dist: no shards configured")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("dist: Config.DB is required")
	}
	svc := service.New(cfg.DB.SchemaOnly(), cfg.Service)
	if err := svc.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c := &Coordinator{
		svc:  svc,
		ttfc: stats.NewWindow(latencyWindow),
	}
	for _, url := range cfg.Shards {
		c.shards = append(c.shards, &shardConn{
			url:    url,
			client: server.NewClient(url),
			lat:    stats.NewWindow(latencyWindow),
		})
	}
	return c, nil
}

// Shards returns the fleet size.
func (c *Coordinator) Shards() int { return len(c.shards) }

// WaitReady blocks until every shard answers /healthz or the timeout
// passes.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, sh := range c.shards {
		left := time.Until(deadline)
		if left <= 0 {
			left = time.Millisecond
		}
		if err := sh.client.WaitReady(left); err != nil {
			return fmt.Errorf("dist: shard %s: %w", sh.url, err)
		}
	}
	return nil
}

// DB implements server.Executor: the schema-only catalog wire plans are
// validated against.
func (c *Coordinator) DB() *tpch.DB { return c.svc.DB() }

// Cache implements server.Executor: the coordinator's own knowledge
// store, which gossip keeps merged with the shards'.
func (c *Coordinator) Cache() *service.FlavorCache { return c.svc.Cache() }

// SeededInstances implements server.Executor for the coordinator's
// residual sessions.
func (c *Coordinator) SeededInstances() (seeded, cold int64) { return c.svc.SeededInstances() }

// Execute implements server.Executor: one TPC-H query, distributed.
func (c *Coordinator) Execute(q int) (*engine.Table, service.JobStats, error) {
	if q < 1 || q > 22 {
		return nil, service.JobStats{}, fmt.Errorf("dist: no TPC-H query %d", q)
	}
	sp := tpch.Query(q)
	b := sp.Plan(c.svc.DB())
	tab, st, err := c.run(b, sp.Finish)
	st.Query = q
	if err != nil {
		return nil, st, fmt.Errorf("dist: Q%02d: %w", q, err)
	}
	return tab, st, nil
}

// ExecutePlan implements server.Executor: an arbitrary wire plan,
// distributed. Like the single-process ExecutePlan it runs every root
// (side outputs learn too) and returns the main root's table.
func (c *Coordinator) ExecutePlan(b *plan.Builder) (*engine.Table, service.JobStats, error) {
	if len(b.Roots()) == 0 {
		return nil, service.JobStats{}, fmt.Errorf("dist: plan %s has no roots", b.Name())
	}
	tab, st, err := c.run(b, func(b *plan.Builder, ex *plan.Exec) (tab *engine.Table, err error) {
		// Wire plans can reach engine panics the builder cannot rule out
		// statically; convert them like service.ExecutePlan does.
		defer func() {
			if r := recover(); r != nil {
				tab, err = nil, fmt.Errorf("plan %s: %v", b.Name(), r)
			}
		}()
		for _, root := range b.Roots() {
			t, rerr := ex.Run(root.Node)
			if rerr != nil {
				return nil, rerr
			}
			if tab == nil {
				tab = t
			}
		}
		return tab, nil
	})
	if err != nil {
		return nil, st, fmt.Errorf("dist: %w", err)
	}
	return tab, st, nil
}

// run is the distributed execution spine: derive fragment sites, fan the
// fragments out — sites concurrent under the bounded fan-out, each site
// streaming per-shard chunks straight into its incremental merge — preset
// the merged tables into the original plan, and finish locally.
func (c *Coordinator) run(b *plan.Builder, finish func(*plan.Builder, *plan.Exec) (*engine.Table, error)) (*engine.Table, service.JobStats, error) {
	if err := c.svc.Err(); err != nil {
		return nil, service.JobStats{}, err
	}
	start := time.Now()
	st := service.JobStats{}

	sites := plan.FragmentSites(b)
	merged := make([]*engine.Table, len(sites))
	siteStats := make([]server.StatsJSON, len(sites))
	sem := make(chan struct{}, siteFanout)
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for si, site := range sites {
		wg.Add(1)
		go func(si int, site *plan.FragmentSite) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			merged[si], siteStats[si], errs[si] = c.runSite(site)
		}(si, site)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	// Fold per-site stats in site order after the fan-out, so the float
	// sums come out identical whatever order the sites finished in.
	for _, sst := range siteStats {
		st.PrimCycles += sst.PrimCycles
		st.Instances += sst.Instances
		st.AdaptiveCalls += sst.AdaptiveCalls
		st.OffBestCalls += sst.OffBestCalls
	}

	// Residual execution: the original plan with every fragment site's
	// merged table preset, in a fresh warm-started session that learns the
	// coordinator-side instances.
	s := c.svc.NewSession()
	ex := b.Bind(s)
	for si, site := range sites {
		if err := ex.Preset(site.Node, merged[si]); err != nil {
			return nil, st, err
		}
	}
	tab, err := finish(b, ex)
	st.Latency = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	c.svc.Harvest(s, &st)
	return tab, st, nil
}

// encodeFragment marshals one site's fragment into the request body every
// shard receives — encoded exactly once per site, however large the
// fleet.
func (c *Coordinator) encodeFragment(site *plan.FragmentSite) ([]byte, error) {
	wire, err := plan.MarshalPlan(site.Fragment)
	if err != nil {
		return nil, fmt.Errorf("marshal fragment %s: %w", site.Table, err)
	}
	body, err := server.EncodePlanRequest(server.PlanRequest{
		Plan:          wire,
		TimeoutMS:     fragmentTimeoutMS,
		IncludeResult: true,
	})
	if err != nil {
		return nil, fmt.Errorf("encode fragment %s: %w", site.Table, err)
	}
	return body, nil
}

// runSite executes one fragment site across the fleet: every shard
// streams its partial concurrently, chunks fold into the site's
// incremental accumulator as they arrive, and the merged table comes back
// with the site's shard stats folded in shard order (deterministic float
// sums).
func (c *Coordinator) runSite(site *plan.FragmentSite) (*engine.Table, server.StatsJSON, error) {
	body, err := c.encodeFragment(site)
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	acc := site.NewAccumulator(len(c.shards))
	shardStats := make([]server.StatsJSON, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for shi, sh := range c.shards {
		wg.Add(1)
		go func(shi int, sh *shardConn) {
			defer wg.Done()
			shardStats[shi], errs[shi] = c.fetchShard(acc, shi, sh, body)
		}(shi, sh)
	}
	wg.Wait()
	for shi, err := range errs {
		if err != nil {
			return nil, server.StatsJSON{}, fmt.Errorf("shard %s: fragment %s: %w", c.shards[shi].url, site.Table, err)
		}
	}
	m, err := acc.Result()
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

// fetchShard ships the fragment over /v1/plan/stream, folding each chunk
// into the accumulator as it arrives and recording time-to-first-chunk.
// The stream is the only transport and there is no retry: a stream that
// fails — non-200, truncation, digest or count mismatch, an error frame —
// fails the query, and runSite names the shard and fragment. (A 429 is
// retried inside the client before the first frame arrives.)
//
// TTFC is measured during the stream but recorded only once the whole
// stream verifies: a stream that dies after its first chunk must not
// leave a provisional sample in the window (it would skew the
// percentiles low, since aborted streams tend to have delivered their
// first chunk quickly).
func (c *Coordinator) fetchShard(acc *plan.PartialAccumulator, shi int, sh *shardConn, body []byte) (server.StatsJSON, error) {
	c.fragments.Add(1)
	start := time.Now()
	ttfc := -1.0
	res, err := sh.client.PlanStreamEncoded(body, func(tj *server.TableJSON) error {
		if ttfc < 0 {
			ttfc = float64(time.Since(start))
		}
		tab, derr := server.DecodeTable(tj)
		if derr != nil {
			return derr
		}
		return acc.AddChunk(shi, tab)
	})
	if err != nil {
		return server.StatsJSON{}, err
	}
	if ttfc < 0 {
		// Zero-row partial: first "chunk" is the verified trailer.
		ttfc = float64(time.Since(start))
	}
	c.ttfc.Add(ttfc)
	sh.lat.Add(float64(time.Since(start)))
	return res.Stats, acc.FinishShard(shi)
}

// Fleet implements server.FleetReporter: fleet-wide fragment latency from
// the per-shard windows folded with stats.Window.Merge, plus gossip
// counters.
func (c *Coordinator) Fleet() server.FleetMetrics {
	all := stats.NewWindow(len(c.shards) * latencyWindow)
	for _, sh := range c.shards {
		all.Merge(sh.lat)
	}
	ps := all.Percentiles(50, 99)
	ttfc := c.ttfc.Percentiles(50, 99)
	sent := c.fragments.Load()
	return server.FleetMetrics{
		Shards:           len(c.shards),
		FragmentsSent:    sent,
		FragmentAttempts: sent,
		GossipRounds:     c.gossipRounds.Load(),
		GossipImported:   c.gossipImported.Load(),
		FragmentP50US:    ps[0] / 1e3,
		FragmentP99US:    ps[1] / 1e3,
		TTFCP50US:        ttfc[0] / 1e3,
		TTFCP99US:        ttfc[1] / 1e3,
	}
}
