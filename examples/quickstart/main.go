// Quickstart: generate a small TPC-H database, run a query with Micro
// Adaptivity enabled (all flavors, vw-greedy selection), and inspect what
// the framework learned: which flavor each primitive instance settled on.
package main

import (
	"fmt"
	"log"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/tpch"
)

func main() {
	// A session carries the primitive dictionary (here: every flavor on
	// every axis), the virtual machine profile, and the learning policy
	// (vw-greedy by default).
	sess := core.NewSession(
		primitive.NewDictionary(primitive.Everything()),
		hw.Machine1(),
		core.WithVectorSize(256),
		core.WithSeed(7),
	)

	db := tpch.Generate(0.01, 42)

	result, err := tpch.Query(1).Run(db, sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TPC-H Q1 result:")
	fmt.Print(engine.TableString(result, 10))

	fmt.Printf("\nvirtual cycles: %.0f total, %.0f in primitives\n",
		sess.Ctx.TotalCycles(), sess.Ctx.PrimCycles)

	fmt.Println("\nwhat each primitive instance learned (calls per flavor):")
	for _, inst := range sess.Instances() {
		if inst.Calls < 32 {
			continue
		}
		fmt.Printf("  %-48s %6d calls, %5.2f cycles/tuple\n",
			inst.Label, inst.Calls, inst.CyclesPerTuple())
		for fi, fs := range inst.PerArm {
			if fs.Calls == 0 {
				continue
			}
			fmt.Printf("      %-28s %6d calls  %6.2f cycles/tuple\n",
				inst.Arms[fi], fs.Calls, fs.CyclesPerTuple())
		}
	}
}
