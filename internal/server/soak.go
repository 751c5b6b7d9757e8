package server

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/primitive"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
	"microadapt/internal/traffic"
)

// SoakConfig parameterizes a sustained open-loop load run against a
// madaptd server.
type SoakConfig struct {
	// URL targets a running server; empty spawns one in-process over a
	// real TCP listener (the same Start/Shutdown lifecycle madaptd uses)
	// and tears it down afterwards.
	URL string
	// Duration, Rate, Mix, Bursts, Seed define the open-loop arrival
	// schedule (see traffic.Traffic).
	Duration time.Duration
	Rate     float64
	Mix      []traffic.WeightedQuery
	Bursts   []traffic.Phase
	Seed     int64
	// Clients is how many concurrent clients carry the load (round-robin
	// over arrivals). Minimum 1; the acceptance soak uses 4+.
	Clients int
	// PlanEvery ships every Nth arrival as a client-built wire plan via
	// /v1/plan instead of a query number (0 = never).
	PlanEvery int
	// SampleEvery fetches the full result of every Nth arrival and
	// compares it bit-for-bit against in-process execution (0 = never).
	SampleEvery int
	// SF and DBSeed must match the target server's database so the
	// in-process ground truth is the same relation set.
	SF     float64
	DBSeed int64
	// Out, when set, receives a human-readable progress line per phase.
	Out io.Writer
}

// SoakReport is the outcome of one soak run.
type SoakReport struct {
	Scheduled int // arrivals in the schedule
	OK        int
	Shed      int // 429s: expected under burst overload, not errors
	// ProtocolErrors are broken exchanges: transport failures, malformed
	// bodies, unexpected statuses. A passing soak has none.
	ProtocolErrors []string

	SampleChecks     int
	SampleMismatches int
	PlanRequests     int

	// Client-observed latency over successful requests.
	P50, P99, Max time.Duration
	// FirstHalfP99 and SecondHalfP99 split successes by arrival time; a
	// stable server keeps the second half's p99 in the same regime as
	// the first's instead of degrading as the run goes on.
	FirstHalfP99, SecondHalfP99 time.Duration

	// Metrics is the server's own snapshot after the run.
	Metrics MetricsSnapshot
}

// Validate applies the soak acceptance criteria: zero protocol errors,
// zero sampled mismatches (with sampling actually exercised), some
// successful work, and a p99 that did not degrade materially between the
// run's halves.
func (r *SoakReport) Validate() error {
	if len(r.ProtocolErrors) > 0 {
		n := len(r.ProtocolErrors)
		return fmt.Errorf("soak: %d protocol errors, first: %s", n, r.ProtocolErrors[0])
	}
	if r.OK == 0 {
		return fmt.Errorf("soak: no request succeeded (%d shed)", r.Shed)
	}
	if r.SampleMismatches > 0 {
		return fmt.Errorf("soak: %d sampled results diverged from in-process execution", r.SampleMismatches)
	}
	if r.SampleChecks == 0 {
		return fmt.Errorf("soak: no samples were checked; the correctness leg did not run")
	}
	// Allow generous absolute slack: at tiny scale factors the base p99
	// is sub-millisecond and a single GC pause would otherwise fail the
	// run spuriously.
	if limit := 5*r.FirstHalfP99 + 200*time.Millisecond; r.SecondHalfP99 > limit {
		return fmt.Errorf("soak: p99 degraded from %v to %v (limit %v)",
			r.FirstHalfP99, r.SecondHalfP99, limit)
	}
	return nil
}

// String renders the report for operators.
func (r *SoakReport) String() string {
	m := r.Metrics
	return fmt.Sprintf(
		"soak: %d scheduled, %d ok, %d shed, %d protocol errors\n"+
			"      samples: %d checked, %d mismatched; %d plan requests\n"+
			"      client latency p50=%v p99=%v max=%v (halves p99 %v -> %v)\n"+
			"      server: executed=%d shed=%d expired=%d p99=%.0fus queue-p99=%.0fus\n"+
			"      adaptivity: %.1f%% off-best (%d/%d), cache hit rate %.1f%% (%d keys)",
		r.Scheduled, r.OK, r.Shed, len(r.ProtocolErrors),
		r.SampleChecks, r.SampleMismatches, r.PlanRequests,
		r.P50, r.P99, r.Max, r.FirstHalfP99, r.SecondHalfP99,
		m.Admission.Executed, m.Admission.Shed, m.Admission.Expired, m.LatencyP99US, m.QueueWaitP99US,
		m.OffBestPct, m.OffBestCalls, m.AdaptiveCalls, m.CacheHitRatePct, m.CacheInstanceKeys)
}

// expectation is the precomputed ground truth for one query of the mix.
// Query and plan arrivals have distinct truths: several TPC-H specs
// post-process their plan's output in Go (Q14 divides two sums into a
// share, for instance), so /v1/query answers match Spec.Run while
// /v1/plan answers match executing the shipped plan itself.
type expectation struct {
	fingerprint string
	table       *TableJSON

	planJSON        []byte
	planFingerprint string
	planTable       *TableJSON
}

// RunSoak executes one soak. The run is open-loop: arrivals fire on
// schedule whether or not earlier requests have completed, so a slow or
// wedged server accumulates pressure instead of quietly slowing the
// generator down.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 15 * time.Second
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 40
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = traffic.ZipfMix(1, 6, 1, 12, 14)
	}
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	if cfg.PlanEvery < 0 {
		cfg.PlanEvery = 0
	}
	if cfg.SF <= 0 {
		cfg.SF = 0.002
	}
	if cfg.DBSeed == 0 {
		cfg.DBSeed = 42
	}
	logf := func(format string, args ...any) {
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, format+"\n", args...)
		}
	}

	schedule, err := (traffic.Traffic{
		Duration: cfg.Duration, Rate: cfg.Rate, Mix: cfg.Mix,
		Bursts: cfg.Bursts, Seed: cfg.Seed,
	}).Schedule()
	if err != nil {
		return nil, err
	}

	// The local database doubles as the ground truth for sampled result
	// comparison and as the catalog client-built plans resolve against.
	logf("soak: generating local ground-truth DB (sf=%g seed=%d)", cfg.SF, cfg.DBSeed)
	db := tpch.Generate(cfg.SF, cfg.DBSeed)
	expected := make(map[int]*expectation)
	for _, wq := range cfg.Mix {
		if _, ok := expected[wq.Query]; ok {
			continue
		}
		exp, err := buildExpectation(db, wq.Query)
		if err != nil {
			return nil, err
		}
		expected[wq.Query] = exp
	}

	url := cfg.URL
	if url == "" {
		svcCfg := service.DefaultConfig()
		run, err := Start(NewServer(Config{Service: service.New(db, svcCfg)}), "")
		if err != nil {
			return nil, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = run.Shutdown(ctx)
		}()
		url = run.URL
		logf("soak: spawned in-process server at %s", url)
	}

	// Each concurrent soak client has its own connection pool.
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		// Retries off: the soak harness measures the server's shedding
		// behavior, so every 429 must reach the accounting below instead
		// of being absorbed by the client's backoff loop.
		clients[i] = NewClient(url).WithRetry(RetryPolicy{})
	}
	if err := clients[0].WaitReady(10 * time.Second); err != nil {
		return nil, err
	}

	type result struct {
		at       time.Duration
		latency  time.Duration
		ok, shed bool
		protoErr string
		sampled  bool
		mismatch bool
		wasPlan  bool
	}
	results := make([]result, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	logf("soak: %d arrivals over %v at %d clients", len(schedule), cfg.Duration, cfg.Clients)
	for i, a := range schedule {
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a traffic.Arrival) {
			defer wg.Done()
			r := &results[i]
			r.at = a.At
			c := clients[i%cfg.Clients]
			exp := expected[a.Query]
			r.sampled = cfg.SampleEvery > 0 && i%cfg.SampleEvery == 0
			r.wasPlan = cfg.PlanEvery > 0 && i%cfg.PlanEvery == 0

			t0 := time.Now()
			var out *Outcome
			var err error
			wantFP, wantTable := exp.fingerprint, exp.table
			if r.wasPlan {
				out, err = c.Plan(PlanRequest{Plan: exp.planJSON, IncludeResult: r.sampled})
				wantFP, wantTable = exp.planFingerprint, exp.planTable
			} else {
				out, err = c.Query(QueryRequest{Query: a.Query, IncludeResult: r.sampled})
			}
			r.latency = time.Since(t0)
			if err != nil {
				r.protoErr = fmt.Sprintf("arrival %d (Q%02d): %v", i, a.Query, err)
				return
			}
			switch {
			case out.OK():
				r.ok = true
				if out.Response.Fingerprint != wantFP {
					r.mismatch = true
				}
				if r.sampled {
					got, derr := out.Response.ResultTable()
					if derr != nil || !got.Equal(wantTable) {
						r.mismatch = true
					}
				}
			case out.Shed():
				r.shed = true
			default:
				r.protoErr = fmt.Sprintf("arrival %d (Q%02d): unexpected status %d: %+v",
					i, a.Query, out.Status, out.Err)
			}
		}(i, a)
	}
	wg.Wait()

	rep := &SoakReport{Scheduled: len(schedule)}
	var all, firstHalf, secondHalf []float64
	for i := range results {
		r := &results[i]
		switch {
		case r.protoErr != "":
			rep.ProtocolErrors = append(rep.ProtocolErrors, r.protoErr)
		case r.ok:
			rep.OK++
			all = append(all, float64(r.latency))
			if r.at < cfg.Duration/2 {
				firstHalf = append(firstHalf, float64(r.latency))
			} else {
				secondHalf = append(secondHalf, float64(r.latency))
			}
			if r.sampled {
				rep.SampleChecks++
			}
			if r.mismatch {
				rep.SampleMismatches++
			}
		case r.shed:
			rep.Shed++
		}
		if r.wasPlan {
			rep.PlanRequests++
		}
	}
	rep.P50 = time.Duration(stats.Percentile(all, 50))
	rep.P99 = time.Duration(stats.Percentile(all, 99))
	rep.Max = time.Duration(stats.Percentile(all, 100))
	rep.FirstHalfP99 = time.Duration(stats.Percentile(firstHalf, 99))
	rep.SecondHalfP99 = time.Duration(stats.Percentile(secondHalf, 99))
	rep.Metrics, err = clients[0].Metrics()
	if err != nil {
		return nil, fmt.Errorf("soak: final metrics: %w", err)
	}
	return rep, nil
}

// plannedSession builds the deterministic single-flavor session the
// ground truth runs on: no adaptivity, so any wire/in-process divergence
// is the server's fault, not a flavor difference (flavors are
// result-identical by the engine's own tests, but the soak should not
// depend on that invariant to localize a failure).
func plannedSession() *core.Session {
	dict := primitive.NewDictionary(primitive.Defaults())
	return core.NewSession(dict, hw.Machine1(), core.WithVectorSize(128), core.WithSeed(3))
}

// buildExpectation runs query q in process on a single-flavor build and
// captures the fingerprint, the wire-encoded table, and the marshalled
// plan used for /v1/plan arrivals.
func buildExpectation(db *tpch.DB, q int) (*expectation, error) {
	spec := tpch.Query(q)
	tab, err := spec.Run(db, plannedSession())
	if err != nil {
		return nil, fmt.Errorf("soak: ground truth Q%02d: %w", q, err)
	}
	b := spec.Plan(db)
	planJSON, err := plan.MarshalPlan(b)
	if err != nil {
		return nil, fmt.Errorf("soak: marshal plan Q%02d: %w", q, err)
	}
	// The plan ground truth mirrors the server's /v1/plan semantics: run
	// every registered root, return the main (first) one.
	exec := b.Bind(plannedSession())
	var planTab *engine.Table
	for _, root := range b.Roots() {
		t, err := exec.Run(root.Node)
		if err != nil {
			return nil, fmt.Errorf("soak: plan ground truth Q%02d: %w", q, err)
		}
		if planTab == nil {
			planTab = t
		}
	}
	return &expectation{
		fingerprint:     Fingerprint(tab),
		table:           EncodeTable(tab),
		planJSON:        planJSON,
		planFingerprint: Fingerprint(planTab),
		planTable:       EncodeTable(planTab),
	}, nil
}
