package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"microadapt/internal/dist"
	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// env is one workload set up and warm: the database, the system under test
// in its topology, and the ground truth every measured result is held to.
type env struct {
	w    workload
	seed int64
	db   *tpch.DB

	// Ground truth: each query of the mix run once on a fresh flat, serial,
	// in-process service. The repo's bit-identity oracle says storage
	// encoding, P, wire form and fleet size never change a fingerprint.
	truth map[int]*engine.Table
	want  map[int]string

	svc      *service.Service // the embedded or served service; on dist, the single-process baseline
	exec     *switchExec      // served: what the server fronts
	front    *server.Running  // served: the server
	clients  []*server.Client // served: one per closed-loop client
	planBody map[int][]byte   // served: pre-encoded /v1/plan bodies of the queries without a Deliver step
	planKeys map[int]string   // served: the key the executor claims each of those plans under
	shards   []*shardServer   // dist
	coord    *dist.Coordinator
	spine    *distSpine // dist: the traced twin of coord, over the same shards

	// Set-up accounting.
	setupS, generateS, encodeS float64
	setupSpeed                 speed // machine speed index over the set-up
	coldPassMS, coldOffBestPct float64
}

type shardServer struct {
	exec *switchExec
	run  *server.Running
}

// serviceConfig is the workload's service configuration: the defaults
// plus what the table row says.
func serviceConfig(w workload, seed int64) service.Config {
	sc := service.DefaultConfig()
	sc.Seed = seed
	sc.EncodedStorage = w.Encoded
	sc.PipelineParallelism = w.P
	return sc
}

// setup builds the workload's environment from the seed and warms it. The
// time it takes is the workload's setup_s; the yardstick is read before,
// after, and twice on the way, off the clock.
func setup(w workload, seed int64, cal *calibrator) (e *env, err error) {
	var yard []reading
	var start time.Time
	var offClock time.Duration
	read := func() {
		t0 := time.Now()
		yard = append(yard, cal.sample())
		offClock += time.Since(t0)
	}
	read()
	start, offClock = time.Now(), 0
	e = &env{w: w, seed: seed, truth: map[int]*engine.Table{}, want: map[int]string{}}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()

	t0 := time.Now()
	e.db = tpch.Generate(w.SF, seed)
	e.generateS = time.Since(t0).Seconds()

	// Ground truth first: Encode rewrites the shared database in place.
	ref := service.New(e.db, service.DefaultConfig())
	for _, q := range w.Mix {
		tab, _, err := ref.Execute(q)
		if err != nil {
			return e, fmt.Errorf("ground truth Q%02d: %w", q, err)
		}
		e.truth[q], e.want[q] = tab, server.Fingerprint(tab)
	}

	read()
	sc := serviceConfig(w, seed)
	if w.Encoded {
		t0 = time.Now()
		e.db.Encode()
		e.encodeS = time.Since(t0).Seconds()
	}
	switch w.Topology {
	case topoEmbedded:
		e.svc = service.New(e.db, sc)
	case topoServed:
		err = e.startServed(sc)
	case topoDist:
		err = e.startFleet(sc)
	default:
		err = fmt.Errorf("workload %s: unknown topology %q", w.Name, w.Topology)
	}
	if err != nil {
		return e, err
	}
	read()
	if err := e.warmUp(); err != nil {
		return e, err
	}
	e.setupS = (time.Since(start) - offClock).Seconds()
	read()
	e.setupSpeed = speedIndex(yard)
	return e, nil
}

func (e *env) startServed(sc service.Config) error {
	e.svc = service.New(e.db, sc)
	e.exec = &switchExec{svc: e.svc}
	run, err := server.Start(server.NewServer(server.Config{Service: e.exec}), "")
	if err != nil {
		return err
	}
	e.front = run
	for c := 0; c < e.w.Clients; c++ {
		e.clients = append(e.clients, server.NewClient(run.URL))
	}
	if err := e.clients[0].WaitReady(time.Minute); err != nil {
		return err
	}
	e.planBody, e.planKeys = map[int][]byte{}, map[int]string{}
	for _, q := range e.w.Mix {
		sp := tpch.Query(q)
		if sp.Deliver != nil {
			continue // the delivery step runs server-side only on /v1/query
		}
		b := sp.Plan(e.db)
		wire, err := plan.MarshalPlan(b)
		if err != nil {
			return fmt.Errorf("marshal Q%02d: %w", q, err)
		}
		body, err := server.EncodePlanRequest(server.PlanRequest{Plan: wire, IncludeResult: true})
		if err != nil {
			return err
		}
		e.planBody[q], e.planKeys[q] = body, planKey(b, 0)
	}
	return nil
}

func (e *env) startFleet(sc service.Config) error {
	e.svc = service.New(e.db, sc) // the single-process side of dist_single_ratio
	urls := make([]string, e.w.Shards)
	for i := range urls {
		x := &switchExec{svc: service.New(e.db.Shard(i, e.w.Shards), sc), shard: i}
		run, err := server.Start(server.NewServer(server.Config{Service: x}), "")
		if err != nil {
			return fmt.Errorf("start shard %d: %w", i, err)
		}
		e.shards = append(e.shards, &shardServer{exec: x, run: run})
		urls[i] = run.URL
	}
	var err error
	if e.coord, err = dist.New(dist.Config{Shards: urls, DB: e.db, Service: sc}); err != nil {
		return err
	}
	if err := e.coord.WaitReady(time.Minute); err != nil {
		return err
	}
	e.spine, err = newDistSpine(e.db, sc, urls)
	return err
}

// warmUp runs the table's warm-up passes through the untraced runner, and
// goes on while a pass still adds keys to the flavor cache. The first pass
// meets an empty cache: its time and off-best share are the cold numbers.
func (e *env) warmUp() error {
	r := e.runner(nil)
	streams := make([]*mixStream, e.w.Clients)
	for c := range streams {
		streams[c] = newMixStream(e.w.Mix, e.seed^0x5eed, c)
	}
	keys := 0
	for pass := 0; pass < e.w.Warmup+3; pass++ {
		start := time.Now()
		var adaptive, offBest int64
		for c, ms := range streams {
			perm, pi := ms.next()
			for _, q := range perm {
				o, err := r(c, pi, q)
				if err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
				if !e.verify(o, q, true) {
					return fmt.Errorf("warm-up: Q%02d result differs from ground truth", q)
				}
				adaptive += o.adaptive
				offBest += o.offBest
			}
		}
		if pass == 0 {
			e.coldPassMS = float64(time.Since(start)) / 1e6
			if adaptive > 0 {
				e.coldOffBestPct = 100 * float64(offBest) / float64(adaptive)
			}
		}
		grew := e.cache().Len() > keys
		keys = e.cache().Len()
		if pass+1 >= e.w.Warmup && !grew {
			break
		}
	}
	if e.w.Baseline {
		for pass := 0; pass < e.w.Warmup; pass++ {
			for _, q := range e.w.Mix {
				if _, _, err := e.svc.Execute(q); err != nil {
					return fmt.Errorf("warm-up baseline: %w", err)
				}
			}
		}
	}
	return nil
}

// cache is the flavor cache of the executor the workload's callers talk to.
func (e *env) cache() *service.FlavorCache {
	if e.coord != nil {
		return e.coord.Cache()
	}
	return e.svc.Cache()
}

// seededInstances are the warm-start counters of that same executor.
func (e *env) seededInstances() (seeded, cold int64) {
	if e.coord != nil {
		return e.coord.SeededInstances()
	}
	return e.svc.SeededInstances()
}

// setTracer installs (or, with nil, removes) the tracer on every executor
// that sits behind HTTP.
func (e *env) setTracer(tr *tracer) {
	if e.exec != nil {
		e.exec.tr.Store(tr)
	}
	for _, sh := range e.shards {
		sh.exec.tr.Store(tr)
	}
}

// close stops every server the environment started and waits for it.
func (e *env) close() {
	stop := func(r *server.Running) {
		if r == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.Shutdown(ctx) // a server that will not stop within 10 s is abandoned with the process
		cancel()
	}
	stop(e.front)
	for _, sh := range e.shards {
		stop(sh.run)
	}
	if e.front != nil || len(e.shards) > 0 {
		// server.Client rides http.DefaultTransport; drop its idle
		// connections to the servers that just went away.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}
