// Concurrent service: one shared database, one fresh session per query,
// and a shared flavor-knowledge cache. The demonstration runs the same
// query sequence twice — cold sessions first, then sessions warm-started
// from a priming pass — and shows the exploration tax (calls spent on
// flavors a session later abandons) shrinking, the cross-session
// amortization the service exists for. Execute is safe to call from many
// goroutines; this example calls it in a loop so its numbers are the same
// on every run.
package main

import (
	"fmt"
	"log"

	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// offBestPerJob runs jobs queries of mix round-robin and returns their
// mean off-best calls.
func offBestPerJob(svc *service.Service, mix []int, jobs int) float64 {
	var offBest int64
	for i := 0; i < jobs; i++ {
		_, st, err := svc.Execute(mix[i%len(mix)])
		if err != nil {
			log.Fatal(err)
		}
		offBest += st.OffBestCalls
	}
	return float64(offBest) / float64(jobs)
}

func main() {
	db := tpch.Generate(0.01, 42)
	mix := []int{1, 6, 12, 14}
	const jobs = 48

	// Phase 1: every session explores from scratch.
	cold := service.DefaultConfig()
	cold.WarmStart = false
	cold.Seed = 7
	coldTax := offBestPerJob(service.New(db, cold), mix, jobs)

	// Phase 2: same queries, but sessions seed their choosers from the
	// shared cache through the WarmStarter capability — the same code path
	// works for any registry policy (try cold.Policy = "ucb1" or
	// "thompson"). One pass over the mix populates the cache; the measured
	// phase then runs warm.
	warm := cold
	warm.WarmStart = true
	svc := service.New(db, warm)
	offBestPerJob(svc, mix, len(mix))
	warmTax := offBestPerJob(svc, mix, jobs)
	seeded, coldInsts := svc.SeededInstances()

	fmt.Printf("warm start: %.1f -> %.1f off-best calls/job; %d/%d instances seeded; %d instance keys cached\n",
		coldTax, warmTax, seeded, seeded+coldInsts, svc.Cache().Len())

	fmt.Println("\nbest known flavor per cached instance (first 10):")
	for i, key := range svc.Cache().Keys() {
		if i == 10 {
			break
		}
		name, cost := svc.Cache().BestFlavor(key)
		fmt.Printf("  %-64s %-24s %6.2f cycles/tuple\n", key, name, cost)
	}
}
