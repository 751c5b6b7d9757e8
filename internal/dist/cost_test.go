package dist

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

var updateCost = flag.Bool("update", false, "rewrite testdata/cost.golden")

// costMix is the query mix the cost golden replays: scan-heavy,
// fragment-friendly queries plus join- and delivery-heavy residuals.
var costMix = []int{1, 3, 6, 12, 14, 19}

// costRounds is how often each tier runs the mix. Later rounds
// warm-start from what earlier rounds harvested, so the golden pins
// learning, not only cold starts.
const costRounds = 3

// costReplay runs the golden workload and renders one line per (entry,
// round, query). Over TPC-H sf=0.01 seed=42 and service.DefaultConfig()
// with Seed 42 it runs the mix costRounds times single-process
// ("single") and distributed over 2 and 4 in-process shards ("dist-n2",
// "dist-n4"), then once on shard 0 of 2 cold ("federation-cold") and
// once warm-started from the knowledge the 2-shard fleet gossiped
// ("federation-warm"). Every distributed result must fingerprint-equal
// the single-process one, and the warm-started shard must pay fewer
// off-best calls than the cold one: that is what federation is for, and
// checking it here keeps -update from quietly pinning a regression.
func costReplay(t *testing.T) string {
	db := tpch.Generate(0.01, 42)
	shard0 := db.Shard(0, 2)
	sc := service.DefaultConfig()
	sc.Seed = 42

	var out strings.Builder
	fmt.Fprintf(&out, "# TPC-H sf=0.01 seed=42, service.DefaultConfig() with Seed 42, mix %v\n", costMix)
	for _, f := range []struct {
		name string
		db   *tpch.DB
	}{{"full", db}, {"shard0/2", shard0}} {
		flat, resident := f.db.StorageFootprint()
		fmt.Fprintf(&out, "footprint %-8s flat_bytes=%d resident_bytes=%d\n", f.name, flat, resident)
	}

	want := map[int]string{} // single-process result fingerprints
	run := func(entry string, rounds int, ex server.Executor) (offBest int64) {
		for r := 0; r < rounds; r++ {
			for _, q := range costMix {
				tab, st, err := ex.Execute(q)
				if err != nil {
					t.Fatalf("%s r%d Q%02d: %v", entry, r, q, err)
				}
				switch fp := server.Fingerprint(tab); {
				case entry == "single":
					want[q] = fp
				case strings.HasPrefix(entry, "dist-") && fp != want[q]:
					t.Errorf("%s r%d Q%02d: result differs from single-process", entry, r, q)
				}
				fmt.Fprintf(&out, "%-15s r%d Q%02d prim_cycles=%.0f adaptive_calls=%d off_best_calls=%d\n",
					entry, r, q, st.PrimCycles, st.AdaptiveCalls, st.OffBestCalls)
				offBest += st.OffBestCalls
			}
		}
		return offBest
	}

	run("single", costRounds, service.New(db, sc))
	n2, _ := startFleet(t, db, 2, sc)
	run("dist-n2", costRounds, n2)
	n4, _ := startFleet(t, db, 4, sc)
	run("dist-n4", costRounds, n4)

	// dist-n2's fleet has now run the mix costRounds times: gossip its
	// knowledge together and hand it to a fresh shard-0 process.
	if _, err := n2.GossipOnce(); err != nil {
		t.Fatalf("gossip: %v", err)
	}
	cold := run("federation-cold", 1, service.New(shard0, sc))
	warm := service.New(shard0, sc)
	warm.Cache().Import(n2.Cache().Export())
	if warmOffBest := run("federation-warm", 1, warm); warmOffBest >= cold {
		t.Errorf("federation-warm off_best_calls = %d, want < federation-cold's %d", warmOffBest, cold)
	}
	return out.String()
}

// TestCostGolden is the repository's cost regression gate. It pins, per
// (entry, round, query) of costReplay, the virtual primitive cycles, the
// adaptive calls and the off-best calls, plus the storage footprint of
// the full database and of shard 0. These are what the chooser observes,
// and they are deterministic: hw.Machine is a simulated cost model, so at
// a fixed (sf, seed, vector size) the lines do not depend on the host's
// speed, GOMAXPROCS or the race detector (checked on linux/amd64; where
// the compiler fuses multiply-adds, as on arm64, float rounding may
// differ). Wall-clock time varies with the host and is not gated here;
// the benchmark (go run ./benchmark) measures it.
//
// Any drift fails and names the entry, round and query that moved. The
// test does not skip under -short, so CI's go test -short -race run is
// the gate. When a change moves cost on purpose, regenerate with:
//
//	go test ./internal/dist -run TestCostGolden -update
func TestCostGolden(t *testing.T) {
	got := costReplay(t)
	path := filepath.Join("testdata", "cost.golden")
	if *updateCost {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if diff := firstDiffs(string(want), got, 10); diff != "" {
		t.Errorf("cost drift against %s (first differing lines, -want +got):\n%s"+
			"if the change is intentional, regenerate with:\n\tgo test ./internal/dist -run TestCostGolden -update",
			path, diff)
	}
}

// firstDiffs lists up to limit line pairs that differ between want and
// got, compared position by position; "" when they are equal.
func firstDiffs(want, got string, limit int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if limit == 0 {
			b.WriteString("...\n")
			break
		}
		limit--
		fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
	}
	return b.String()
}
