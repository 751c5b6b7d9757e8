package dist

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

var testDB = tpch.Generate(0.002, 42)

// startShards spins up n in-process shard servers over row-range shards
// of db and returns their URLs. srvCfg parameterizes the shard
// servers beyond the executing service (e.g. StreamChunkRows).
func startShards(t *testing.T, db *tpch.DB, n int, svcCfg service.Config, srvCfg server.Config) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := srvCfg
		cfg.Service = service.New(db.Shard(i, n), svcCfg)
		urls[i] = startServer(t, cfg)
	}
	return urls
}

// startServer runs one in-process server until the test ends and returns
// its URL.
func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	run, err := server.Start(server.NewServer(cfg), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A dialed but never used keep-alive connection stays "new" to the
		// server, and Shutdown waits up to 5s for it; drop the client side.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = run.Shutdown(ctx)
	})
	return run.URL
}

// newCoordinator builds a coordinator whose pooled shard connections
// close when the test ends, before the shard servers shut down (cleanups
// run last-registered first), so no server waits on an idle connection.
func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// startFleet spins up n shard servers over db plus a coordinator fronting
// them, returning both the coordinator and the shard URLs.
func startFleet(t *testing.T, db *tpch.DB, n int, svcCfg service.Config) (*Coordinator, []string) {
	t.Helper()
	urls := startShards(t, db, n, svcCfg, server.Config{})
	c := newCoordinator(t, Config{Shards: urls, DB: db, Service: svcCfg})
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, urls
}

// TestDistributedBitIdentity: a distributed query counts its primitive
// instances, and every fragment completes on its one stream, leaving one
// verified time-to-first-chunk sample per fragment sent. That distributed
// results equal single-process ones is the dist-* rows of
// TestIdentityOracle.
func TestDistributedBitIdentity(t *testing.T) {
	c, _ := startFleet(t, testDB, 2, service.DefaultConfig())
	_, st, err := c.Execute(14) // two base tables -> two sites
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances == 0 {
		t.Error("no primitive instances counted")
	}
	fleet := c.Fleet()
	if fleet.FragmentsSent == 0 {
		t.Fatal("coordinator sent no fragments")
	}
	if fleet.TTFCP50US <= 0 {
		t.Error("no time-to-first-chunk recorded")
	}
	if got := int64(c.ttfc.Len()); got != fleet.FragmentsSent {
		t.Errorf("%d TTFC samples for %d fragments", got, fleet.FragmentsSent)
	}
}

// TestWarmCoordinatorDialsNothing: a warm coordinator's connection
// count stays under one bound however many queries it runs. A shard
// client dials when every pooled connection is busy, and at most
// siteFanout streams go to one shard at once, so a pool that holds
// siteFanout connections never dials again. When a pool gets there is up
// to timing: the warm-up need not put siteFanout streams on one shard,
// and a dial whose stream meanwhile takes a connection just returned
// leaves one connection more. The bound is the idle connections a shard
// client keeps, idleConnsPerHost (8, twice siteFanout), per shard.
func TestWarmCoordinatorDialsNothing(t *testing.T) {
	c, urls := startFleet(t, testDB, 2, service.DefaultConfig())
	mix := []int{1, 3, 5, 9, 14}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := c.Execute(mix[i%len(mix)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(len(mix))
	if c.Fleet().ConnectionsOpened == 0 {
		t.Fatal("no connections counted during warm-up")
	}
	bound := int64(len(urls) * 2 * siteFanout)
	for _, n := range []int{30, 120} {
		run(n)
		if got := c.Fleet().ConnectionsOpened; got > bound {
			t.Fatalf("after %d more queries: %d connections opened, want at most %d", n, got, bound)
		}
	}
}

// TestShardRanges: shard slices partition every table exactly.
func TestShardRanges(t *testing.T) {
	n := 3
	for ti, tab := range testDB.Tables() {
		total := 0
		for i := 0; i < n; i++ {
			total += testDB.Shard(i, n).Tables()[ti].Rows()
		}
		if total != tab.Rows() {
			t.Errorf("table %s: shards sum to %d rows, want %d", tab.Name, total, tab.Rows())
		}
	}
	schemaOnly := testDB.SchemaOnly()
	for _, tab := range schemaOnly.Tables() {
		if tab.Rows() != 0 {
			t.Errorf("schema-only table %s has %d rows", tab.Name, tab.Rows())
		}
	}
}

// TestFlavorFederation: knowledge learned by one shard reaches the other
// through a gossip round, and warm-starts its sessions — the cross-process
// warm-start the federation exists for.
func TestFlavorFederation(t *testing.T) {
	c, _ := startFleet(t, testDB, 2, service.DefaultConfig())

	// Warm the fleet: distributed queries make every shard learn its
	// fragment instances locally.
	for q := 1; q <= 6; q++ {
		if _, _, err := c.Execute(q); err != nil {
			t.Fatalf("Q%02d: %v", q, err)
		}
	}
	if c.Cache().Len() != 0 {
		// Residual instances may or may not exist depending on the plans;
		// either way gossip must still work below.
		t.Logf("coordinator cache holds %d keys before gossip", c.Cache().Len())
	}
	imported, err := c.GossipOnce()
	if err != nil {
		t.Fatalf("gossip: %v", err)
	}
	if imported == 0 {
		t.Fatal("gossip imported no flavor estimates from warmed shards")
	}
	if c.Cache().Len() == 0 {
		t.Fatal("coordinator cache still empty after gossip")
	}

	// A brand-new shard process (fresh cache) that receives the fleet
	// snapshot warm-starts its first query's instances.
	cold := service.New(testDB.Shard(0, 2), service.DefaultConfig())
	if got := cold.Cache().Import(c.Cache().Export()); got == 0 {
		t.Fatal("cold shard imported nothing")
	}
	if _, _, err := cold.Execute(1); err != nil {
		t.Fatal(err)
	}
	seeded, _ := cold.SeededInstances()
	if seeded == 0 {
		t.Error("cold shard's first query found no cached priors after federation")
	}
}

// TestDecisionKnowledgeFederation: operator-level decision knowledge (the
// join-strategy and ht-sizing arms) rides the same harvest, gossip and
// warm-start path as primitive-flavor knowledge. Joins run at the
// coordinator, so its cache learns decision entries locally; one gossip
// round pushes them to every shard, whose snapshot must carry them back
// through the wire codec; and a cold process importing the fleet snapshot
// warm-starts its decisions before its first join opens.
func TestDecisionKnowledgeFederation(t *testing.T) {
	c, urls := startFleet(t, testDB, 2, service.DefaultConfig())
	for _, q := range []int{3, 5, 10} {
		if _, _, err := c.Execute(q); err != nil {
			t.Fatalf("Q%02d: %v", q, err)
		}
	}
	prefix := core.DecisionSig("join-strategy") + "@"
	countDecisions := func(keys []string) (n int) {
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		return n
	}
	if countDecisions(c.Cache().Keys()) == 0 {
		t.Fatalf("coordinator cache harvested no %s* entries; keys: %v", prefix, c.Cache().Keys())
	}

	if _, err := c.GossipOnce(); err != nil {
		t.Fatalf("gossip: %v", err)
	}
	shard := server.NewClient(urls[0])
	t.Cleanup(shard.CloseIdleConnections)
	snap, err := shard.Flavors()
	if err != nil {
		t.Fatalf("pull shard snapshot: %v", err)
	}
	var shardKeys []string
	for k := range snap.Entries {
		shardKeys = append(shardKeys, k)
	}
	if countDecisions(shardKeys) == 0 {
		t.Fatalf("shard snapshot carries no %s* entries after gossip push; keys: %v", prefix, shardKeys)
	}

	cold := service.New(testDB.Shard(0, 2), service.DefaultConfig())
	if cold.Cache().Import(snap) == 0 {
		t.Fatal("cold shard imported nothing")
	}
	if _, _, err := cold.Execute(3); err != nil {
		t.Fatal(err)
	}
	if seeded, _ := cold.SeededInstances(); seeded == 0 {
		t.Error("cold process found no priors (decisions included) after federation")
	}
}

// TestGossipLoop: the interval loop runs rounds and stops cleanly.
func TestGossipLoop(t *testing.T) {
	c, _ := startFleet(t, testDB, 2, service.DefaultConfig())
	if _, _, err := c.Execute(1); err != nil {
		t.Fatal(err)
	}
	c.StartGossip(10 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for c.Fleet().GossipRounds == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	if c.Fleet().GossipRounds == 0 {
		t.Fatal("gossip loop ran no rounds")
	}
}
