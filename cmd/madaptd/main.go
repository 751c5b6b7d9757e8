// Command madaptd serves the micro-adaptive query engine over HTTP/JSON:
// TPC-H queries by number or client-built logical plans (the plan JSON
// wire form), executed through internal/service with per-request
// admission control, load shedding under saturation, and graceful drain
// on SIGTERM. The surface is stateless: each response reports its own
// adaptation stats, and what queries learn lives in the shared flavor
// cache.
//
// Usage:
//
//	madaptd -addr 127.0.0.1:7433 -sf 0.01 -workers 4
//
// Distributed tiers (see docs/ARCHITECTURE.md):
//
//	madaptd -shard 0 -shards 2 ...      serve one row-range shard
//	madaptd -coordinator URL,URL ...    front a shard fleet
//
// A shard process generates the same database as a single-process server
// and serves shard i's contiguous row range of every table over the
// identical HTTP surface. A coordinator process holds only the schema,
// lowers each query into per-shard plan fragments, streams every partial
// back over /v1/plan/stream (a shard whose stream fails fails the query),
// merges the partials bit-identically, finishes the residual locally, and
// gossips flavor knowledge across the fleet through /v1/flavors.
//
// Endpoints:
//
//	GET    /healthz            readiness (503 once draining)
//	GET    /metrics            latency percentiles, shed/expired counts,
//	                           off-best %, flavor-cache hit rates
//	POST   /v1/query           {"query": 6, ...}; JSON result
//	POST   /v1/plan            {"plan": <plan JSON>, ...}; JSON result
//	POST   /v1/plan/stream     same request, length-prefixed binary frames
//	                           (header, chunk*, then trailer or error)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profile endpoints
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"strings"

	"microadapt/internal/dist"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

func main() {
	fs := flag.NewFlagSet("madaptd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7433", "listen address (host:port; port 0 picks one)")
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor of the served database")
	seed := fs.Int64("seed", 42, "database generator seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent query executors")
	queue := fs.Int("queue", 64, "admission queue depth beyond executing requests (-1 = none)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	retryAfter := fs.Duration("retry-after", 50*time.Millisecond, "backoff suggested on 429")
	policy := fs.String("policy", "vw-greedy", "flavor-selection policy spec")
	pp := fs.Int("pipeline-parallel", 1, "intra-query pipeline parallelism (morsel partitions)")
	encoded := fs.Bool("encoded", false, "serve a compressed-resident database")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "cap on graceful shutdown")
	shard := fs.Int("shard", -1, "serve shard I of a range-partitioned fleet (requires -shards)")
	shards := fs.Int("shards", 0, "fleet size N when serving a shard")
	coordinator := fs.String("coordinator", "", "comma-separated shard URLs: run as fleet coordinator")
	gossip := fs.Duration("gossip", 2*time.Second, "coordinator flavor-gossip interval (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	log.SetPrefix("madaptd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *coordinator != "" && *shard >= 0 {
		log.Fatal("-coordinator and -shard are mutually exclusive")
	}
	if (*shard >= 0) != (*shards > 0) {
		log.Fatal("-shard and -shards must be set together")
	}
	if *shard >= 0 && *shard >= *shards {
		log.Fatalf("-shard %d out of range for -shards %d", *shard, *shards)
	}
	if *workers < 1 {
		log.Fatalf("-workers %d: need at least one executor", *workers)
	}

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers on http.DefaultServeMux.
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	log.Printf("generating TPC-H database (sf=%g seed=%d)", *sf, *seed)
	db := tpch.Generate(*sf, *seed)

	svcCfg := service.DefaultConfig()
	svcCfg.Policy = *policy
	svcCfg.PipelineParallelism = *pp
	svcCfg.EncodedStorage = *encoded

	var (
		executor server.Executor
		coord    *dist.Coordinator
		role     string
	)
	switch {
	case *coordinator != "":
		urls := strings.Split(*coordinator, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		var err error
		coord, err = dist.New(dist.Config{
			Shards:  urls,
			DB:      db,
			Service: svcCfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("coordinator: waiting for %d shards", coord.Shards())
		if err := coord.WaitReady(time.Minute); err != nil {
			log.Fatal(err)
		}
		if *gossip > 0 {
			coord.StartGossip(*gossip)
			defer coord.Stop()
		}
		executor = coord
		role = fmt.Sprintf("coordinator over %d shards", coord.Shards())
	case *shard >= 0:
		executor = service.New(db.Shard(*shard, *shards), svcCfg)
		role = fmt.Sprintf("shard %d/%d", *shard, *shards)
	default:
		executor = service.New(db, svcCfg)
		role = "single-process"
	}

	run, err := server.Start(server.NewServer(server.Config{
		Service:        executor,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		RetryAfter:     *retryAfter,
	}), *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The URL line doubles as the readiness handshake for wrappers that
	// scrape stdout instead of polling /healthz.
	fmt.Printf("madaptd listening on %s\n", run.URL)
	log.Printf("serving %d tables (%s), policy %s, workers=%d queue=%d",
		len(executor.DB().Tables()), role, *policy, *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("%s: draining (completing in-flight and queued work, rejecting new)", got)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := run.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	m := run.Server.Metrics()
	log.Printf("drained: executed=%d shed=%d expired=%d p99=%.0fus",
		m.Admission.Executed, m.Admission.Shed, m.Admission.Expired, m.LatencyP99US)
}
