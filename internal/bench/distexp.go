// Distributed-tier experiments: shard-scaling with bit-identity checks,
// and the flavor-knowledge federation study (cold shard vs. a shard
// warm-started from gossiped fleet knowledge).
package bench

import (
	"context"
	"fmt"
	"time"

	"microadapt/internal/dist"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

// distMix is the query mix the distributed experiments drive: scan-heavy
// fragment-friendly queries plus join/delivery-heavy residuals.
var distMix = []int{1, 3, 6, 12, 14, 19}

// distServiceConfig maps a bench Config onto a service configuration.
func distServiceConfig(cfg Config) service.Config {
	sc := service.DefaultConfig()
	sc.VectorSize = cfg.VectorSize
	sc.Machine = cfg.Machine
	sc.Policy = cfg.policySpec()
	sc.VW = cfg.VW
	sc.Seed = cfg.Seed
	return sc
}

// startDistFleet spins up n in-process shard servers over row-range
// shards of db plus a coordinator fronting them. The returned stop
// function shuts the fleet down.
func startDistFleet(db *tpch.DB, n int, sc service.Config) (*dist.Coordinator, func(), error) {
	var runs []*server.Running
	stop := func() {
		for _, r := range runs {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = r.Shutdown(ctx)
			cancel()
		}
	}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(db.Shard(i, n), sc)
		run, err := server.Start(server.NewServer(server.Config{Service: svc}), "")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("start shard %d: %w", i, err)
		}
		runs = append(runs, run)
		urls[i] = run.URL
	}
	c, err := dist.New(dist.Config{Shards: urls, DB: db, Service: sc})
	if err != nil {
		stop()
		return nil, nil, err
	}
	if err := c.WaitReady(time.Minute); err != nil {
		stop()
		return nil, nil, err
	}
	return c, stop, nil
}

// distTierStats is one fleet size's measured behavior.
type distTierStats struct {
	shards        int
	wall          time.Duration
	fragP50US     float64
	fragP99US     float64
	ttfcP50US     float64
	offBestPct    float64
	adaptiveCalls int64
	fingerprints  bool // all queries bit-identical to single-process
}

// runDistTier executes rounds of the mix through a coordinator over n
// shards and verifies every result against the single-process
// fingerprints.
func runDistTier(db *tpch.DB, n, rounds int, sc service.Config, want map[int]string) (distTierStats, error) {
	c, stop, err := startDistFleet(db, n, sc)
	if err != nil {
		return distTierStats{}, err
	}
	defer stop()
	ts := distTierStats{shards: n, fingerprints: true}
	var adaptive, offBest int64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range distMix {
			tab, st, err := c.Execute(q)
			if err != nil {
				return ts, fmt.Errorf("N=%d Q%02d: %w", n, q, err)
			}
			if server.Fingerprint(tab) != want[q] {
				ts.fingerprints = false
			}
			adaptive += st.AdaptiveCalls
			offBest += st.OffBestCalls
		}
	}
	ts.wall = time.Since(start)
	fleet := c.Fleet()
	ts.fragP50US, ts.fragP99US = fleet.FragmentP50US, fleet.FragmentP99US
	ts.ttfcP50US = fleet.TTFCP50US
	ts.adaptiveCalls = adaptive
	if adaptive > 0 {
		ts.offBestPct = 100 * float64(offBest) / float64(adaptive)
	}
	return ts, nil
}

// DistScaling measures distributed execution across fleet sizes: wall
// time, fragment round-trip percentiles, off-best fraction — with every
// result checked bit-identical against single-process execution.
func DistScaling(cfg Config) (*Report, error) {
	db := cfg.DB()
	sc := distServiceConfig(cfg)
	single := service.New(db, sc)
	want := make(map[int]string, len(distMix))
	const rounds = 3
	lat := stats.NewWindow(4096)
	var adaptive, offBest int64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range distMix {
			tab, st, err := single.Execute(q)
			if err != nil {
				return nil, fmt.Errorf("single Q%02d: %w", q, err)
			}
			if r == 0 {
				want[q] = server.Fingerprint(tab)
			}
			lat.Add(float64(st.Latency))
			adaptive += st.AdaptiveCalls
			offBest += st.OffBestCalls
		}
	}
	singleWall := time.Since(start)
	singleOffBest := 0.0
	if adaptive > 0 {
		singleOffBest = 100 * float64(offBest) / float64(adaptive)
	}

	rows := [][]string{{"tier", "wall ms", "frag p50 us", "frag p99 us", "ttfc p50 us", "off-best %", "bit-identical"}}
	rows = append(rows, []string{
		"single", fmt.Sprintf("%.1f", float64(singleWall.Microseconds())/1e3),
		"-", "-", "-", fmt.Sprintf("%.2f", singleOffBest), "baseline",
	})
	for _, n := range []int{1, 2, 4} {
		ts, err := runDistTier(db, n, rounds, sc, want)
		if err != nil {
			return nil, err
		}
		ident := "yes"
		if !ts.fingerprints {
			ident = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("dist N=%d", n),
			fmt.Sprintf("%.1f", float64(ts.wall.Microseconds())/1e3),
			fmt.Sprintf("%.0f", ts.fragP50US),
			fmt.Sprintf("%.0f", ts.fragP99US),
			fmt.Sprintf("%.0f", ts.ttfcP50US),
			fmt.Sprintf("%.2f", ts.offBestPct),
			ident,
		})
		if !ts.fingerprints {
			return nil, fmt.Errorf("dist N=%d produced results differing from single-process", n)
		}
	}
	body := stats.FormatTable(rows) +
		fmt.Sprintf("\nmix %v x %d rounds, sf=%g seed=%d; fragments run on shard processes over\n"+
			"madaptd's HTTP plan endpoint; results verified bit-identical per query.\n",
			distMix, rounds, cfg.SF, cfg.Seed)
	return &Report{ID: "dist", Title: "Distributed execution: shard scaling with bit-identity", Body: body}, nil
}

// federationStats measures one fresh shard-sized service running the mix.
type federationStats struct {
	offBestPct float64
	adaptive   int64
	seeded     int64
}

func runFederationPhase(db *tpch.DB, sc service.Config, snap *service.KnowledgeSnapshot) (federationStats, error) {
	svc := service.New(db, sc)
	if snap != nil {
		svc.Cache().Import(*snap)
	}
	var adaptive, offBest int64
	for _, q := range distMix {
		_, st, err := svc.Execute(q)
		if err != nil {
			return federationStats{}, err
		}
		adaptive += st.AdaptiveCalls
		offBest += st.OffBestCalls
	}
	fs := federationStats{adaptive: adaptive}
	fs.seeded, _ = svc.SeededInstances()
	if adaptive > 0 {
		fs.offBestPct = 100 * float64(offBest) / float64(adaptive)
	}
	return fs, nil
}

// Federation runs the flavor-knowledge federation study: warm a 2-shard
// fleet through the coordinator, gossip the fleet's knowledge together,
// then compare a cold shard process against an identical process
// warm-started from the gossiped snapshot. The warm shard's off-best
// fraction must be lower — cross-process transfer of flavor knowledge is
// the entire point of federation.
func Federation(cfg Config) (*Report, error) {
	db := cfg.DB()
	sc := distServiceConfig(cfg)

	c, stop, err := startDistFleet(db, 2, sc)
	if err != nil {
		return nil, err
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, q := range distMix {
			if _, _, err := c.Execute(q); err != nil {
				stop()
				return nil, fmt.Errorf("warmup Q%02d: %w", q, err)
			}
		}
	}
	if _, err := c.GossipOnce(); err != nil {
		stop()
		return nil, fmt.Errorf("gossip: %w", err)
	}
	fleet := c.Cache().Export()
	stop()
	if fleet.Len() == 0 {
		return nil, fmt.Errorf("federation: fleet snapshot is empty after warmup")
	}

	shardDB := db.Shard(0, 2)
	cold, err := runFederationPhase(shardDB, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	warm, err := runFederationPhase(shardDB, sc, &fleet)
	if err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}

	rows := [][]string{
		{"phase", "off-best %", "adaptive calls", "seeded instances"},
		{"cold (no federation)", fmt.Sprintf("%.2f", cold.offBestPct), fmt.Sprintf("%d", cold.adaptive), fmt.Sprintf("%d", cold.seeded)},
		{"federated warm-start", fmt.Sprintf("%.2f", warm.offBestPct), fmt.Sprintf("%d", warm.adaptive), fmt.Sprintf("%d", warm.seeded)},
	}
	verdict := "federation reduced the exploration tax"
	if warm.offBestPct >= cold.offBestPct {
		verdict = "WARNING: federation did not reduce off-best fraction on this run"
	}
	body := stats.FormatTable(rows) + fmt.Sprintf(
		"\n%s: %.2f%% -> %.2f%% off-best over mix %v.\n"+
			"The fleet snapshot (%d instance keys) was learned by two shard processes,\n"+
			"gossiped through the coordinator, and imported by a brand-new process\n"+
			"before its first query.\n",
		verdict, cold.offBestPct, warm.offBestPct, distMix, fleet.Len())
	return &Report{ID: "federation", Title: "Flavor-knowledge federation: cold vs. warm-started shard", Body: body}, nil
}
