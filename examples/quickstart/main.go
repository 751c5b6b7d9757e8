// Quickstart: generate a small TPC-H database, run a query with Micro
// Adaptivity enabled (all flavors, vw-greedy selection), and inspect what
// the framework learned: which flavor each primitive instance settled on.
package main

import (
	"fmt"
	"log"

	"microadapt"
)

func main() {
	// A session carries the primitive dictionary (here: every flavor on
	// every axis), the virtual machine profile, and the learning policy
	// (vw-greedy by default).
	sess := microadapt.NewSession(
		microadapt.AllFlavors(),
		microadapt.Machine1(),
		microadapt.WithVectorSize(256),
		microadapt.WithSeed(7),
	)

	db := microadapt.GenerateTPCH(0.01, 42)

	result, err := microadapt.RunQuery(db, sess, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TPC-H Q1 result:")
	fmt.Print(microadapt.FormatTable(result, 10))

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
