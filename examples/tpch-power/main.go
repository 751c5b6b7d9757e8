// tpch-power runs the full 22-query TPC-H workload three times — baseline
// build, hand-tuned heuristics, and Micro Adaptivity — and prints the
// per-query improvement factors and the power-score geometric mean,
// mirroring Table 11 of the paper.
package main

import (
	"flag"
	"fmt"
	"log"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	vecsize := flag.Int("vecsize", 128, "tuples per vector")
	flag.Parse()

	db := tpch.Generate(*sf, 42)
	fmt.Printf("TPC-H SF %.3g: %d lineitems, %d orders, vector size %d\n\n",
		*sf, db.Lineitem.Rows(), db.Orders.Rows(), *vecsize)

	env := policy.Env{Machine: hw.Machine1(), VW: core.DefaultVWParams().Scaled(8), Seed: 1}
	// run executes the suite with one fresh session per query. A non-empty
	// spec names the registry policy; each session gets its own factory, so
	// every query's choosers draw the same seed streams.
	run := func(o primitive.Options, spec string) []float64 {
		var out []float64
		for _, q := range tpch.Queries() {
			opts := []core.SessionOption{core.WithVectorSize(*vecsize), core.WithSeed(1)}
			if spec != "" {
				opts = append(opts, core.WithChooser(policy.MustFactory(spec, env)))
			}
			s := core.NewSession(primitive.NewDictionary(o), hw.Machine1(), opts...)
			if _, err := q.Run(db, s); err != nil {
				log.Fatalf("%s: %v", q.Name, err)
			}
			out = append(out, s.Ctx.TotalCycles())
		}
		return out
	}

	base := run(primitive.Defaults(), "")
	heur := run(primitive.Everything(), "heuristics")
	adapt := run(primitive.Everything(), "vw-greedy")

	fmt.Printf("%-6s %16s %12s %16s\n", "query", "baseline cycles", "heuristics", "micro adaptive")
	var hf, af []float64
	for i, q := range tpch.Queries() {
		hf = append(hf, base[i]/heur[i])
		af = append(af, base[i]/adapt[i])
		fmt.Printf("%-6s %16.0f %12.2f %16.2f\n", q.Name, base[i], hf[i], af[i])
	}
	fmt.Printf("%-6s %16s %12.2f %16.2f\n", "geo", "", stats.GeoMean(hf), stats.GeoMean(af))
	fmt.Println("\n(paper, SF-100: heuristics 1.05, micro adaptivity 1.09)")
}
