// flavor-lab explores the flavor space interactively: it dumps the
// primitive dictionary, then race-tests the flavors of one signature over
// a chosen machine and data distribution — a small workbench for the
// performance-diversity factors of §2 of the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

func main() {
	machineName := flag.String("machine", "machine1", "machine profile (machine1..machine4)")
	sig := flag.String("sig", "select_<_sint_col_sint_val", "primitive signature to race")
	selectivity := flag.Float64("sel", 0.5, "data selectivity for selection primitives")
	calls := flag.Int("calls", 2000, "number of calls")
	flag.Parse()

	machine := hw.MachineByName(*machineName)
	if machine == nil {
		log.Fatalf("unknown machine %q", *machineName)
	}
	dict := primitive.NewDictionary(primitive.Everything())
	prim, ok := dict.Lookup(*sig)
	if !ok {
		log.Fatalf("unknown signature %q; run 'madapt flavors' for the list", *sig)
	}
	fmt.Printf("%s on %s (%s %s): %d flavors\n\n", *sig, machine.Name, machine.Vendor, machine.Arch, len(prim.Flavors))

	if len(flag.Args()) > 0 && flag.Args()[0] == "list" {
		for i, f := range prim.Flavors {
			fmt.Printf("  [%d] %s\n", i, f.Name)
		}
		return
	}

	// Race every flavor on identical data, each pinned by the registry's
	// fixed policy, then run the session's default vw-greedy (nil factory).
	drive := func(chooser core.ChooserFactory) float64 {
		sess := core.NewSession(dict, machine,
			core.WithVectorSize(1024), core.WithSeed(3), core.WithChooser(chooser))
		inst := sess.Instance(*sig, "lab")
		n := sess.VectorSize
		col := make([]int32, n)
		out := make([]int32, n)
		rng := rand.New(rand.NewSource(11))
		threshold := vector.ConstI32(int32(*selectivity * 1000))
		for call := 0; call < *calls; call++ {
			for i := range col {
				col[i] = int32(rng.Intn(1000))
			}
			inst.Run(sess.Ctx, &core.Call{N: n, In: []*vector.Vector{vector.FromI32(col), threshold}, SelOut: out})
		}
		return inst.Cycles
	}
	best := math.Inf(1)
	for arm, f := range prim.Flavors {
		cycles := drive(policy.MustFactory(fmt.Sprintf("fixed:arm=%d", arm), policy.Env{}))
		fmt.Printf("  %-28s %14.0f cycles\n", f.Name, cycles)
		best = math.Min(best, cycles)
	}
	adaptive := drive(nil)
	fmt.Printf("  %-28s %14.0f cycles (%.2fx vs best static)\n", "micro adaptive", adaptive, best/adaptive)
}
