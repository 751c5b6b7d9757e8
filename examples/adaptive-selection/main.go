// adaptive-selection demonstrates the paper's motivating example (§1,
// Figures 1-2): branching vs no-branching selection primitives under a
// selectivity that changes mid-stream, and how vw-greedy switches between
// them at run time.
//
// The program streams vectors whose selectivity starts at 100%, collapses
// to 2% half-way, and recovers at the end — the worst case for any static
// flavor choice — and prints what each strategy costs.
package main

import (
	"fmt"
	"math/rand"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

const (
	vectorSize = 1024
	totalCalls = 6000
)

// selectivityAt is the changing environment: fraction of tuples below the
// predicate threshold at a given call.
func selectivityAt(call int) float64 {
	switch {
	case call < totalCalls/3:
		return 0.98
	case call < 2*totalCalls/3:
		return 0.02
	default:
		return 0.60
	}
}

// runPolicy streams the workload through one session and returns the total
// virtual cycles of the selection instance.
func runPolicy(name string, chooser core.ChooserFactory) float64 {
	sess := core.NewSession(
		primitive.NewDictionary(primitive.BranchSet()),
		hw.Machine1(),
		core.WithVectorSize(vectorSize),
		core.WithChooser(chooser),
	)
	sig := primitive.SelSig("<", vector.I32, false)
	inst := sess.Instance(sig, "demo/"+sig)
	rng := rand.New(rand.NewSource(1))

	col := make([]int32, vectorSize)
	out := make([]int32, vectorSize)
	threshold := vector.ConstI32(1000)
	for call := 0; call < totalCalls; call++ {
		sel := selectivityAt(call)
		for i := range col {
			if rng.Float64() < sel {
				col[i] = int32(rng.Intn(1000)) // qualifies
			} else {
				col[i] = 1000 + int32(rng.Intn(1000)) // does not
			}
		}
		c := &core.Call{N: vectorSize, In: []*vector.Vector{vector.FromI32(col), threshold}, SelOut: out}
		inst.Run(sess.Ctx, c)
	}
	fmt.Printf("%-22s %12.0f cycles  (%.2f cycles/tuple)\n",
		name, inst.Cycles, inst.CyclesPerTuple())
	for fi, fs := range inst.PerArm {
		if fs.Calls > 0 {
			fmt.Printf("    %-24s used for %5d calls\n", inst.Arms[fi], fs.Calls)
		}
	}
	return inst.Cycles
}

func main() {
	fmt.Println("selection over a stream whose selectivity shifts 98% -> 2% -> 60%")
	fmt.Printf("(%d calls x %d tuples)\n\n", totalCalls, vectorSize)

	always0 := runPolicy("always branching", policy.MustFactory("fixed:arm=0", policy.Env{}))
	always1 := runPolicy("always no-branching", policy.MustFactory("fixed:arm=1", policy.Env{}))
	adaptive := runPolicy("micro adaptive", nil)

	best := always0
	if always1 < best {
		best = always1
	}
	fmt.Printf("\nmicro adaptivity vs best static flavor: %.2fx\n", best/adaptive)
	fmt.Println("(> 1.0 means the adaptive run beat every static choice, as in Figure 2)")
}
