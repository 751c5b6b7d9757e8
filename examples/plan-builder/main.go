// Plan builder: declare a custom query as a logical plan DAG, print its
// explain output (logical plan plus physical lowering with automatic
// morsel-partition annotations), and run it serially and morsel-parallel —
// the planner derives partitionability from plan shape, so the parallel
// run needs no query changes and returns a bit-identical table.
package main

import (
	"fmt"
	"log"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/primitive"
	"microadapt/internal/tpch"
)

func main() {
	db := tpch.Generate(0.02, 42)

	// A custom query, not one of the built-in 22: revenue and order count
	// of high-discount lineitems per return flag, largest revenue first.
	//
	// The builder derives every instance label from plan position
	// ("discount-report/sel0", ...), detects that scan→select→project is
	// morsel-partitionable, and materializes nothing except the final
	// result — all from the DAG's shape.
	build := func() *plan.Builder {
		b := plan.New("discount-report")
		scan := b.Scan(db.Lineitem, "l_returnflag", "l_extendedprice", "l_discount", "l_quantity")
		sel := scan.Select(
			plan.CmpVal(2, ">=", 5),
			plan.CmpVal(3, "<", 30),
		)
		proj := sel.Project(
			engine.Keep("l_returnflag", 0),
			engine.ProjExpr{Name: "rev", Expr: expr.Div(
				expr.Mul(sel.Col("l_extendedprice"), sel.Col("l_discount")),
				&expr.ConstI64{V: 100})},
		)
		agg := proj.Agg([]int{0},
			engine.Agg(engine.AggSum, 1, "revenue"),
			engine.Agg(engine.AggCount, -1, "orders"),
		)
		b.Root(agg.Sort(engine.Desc(1)))
		return b
	}

	fmt.Println(build().Explain(4))

	var serial string
	for _, p := range []int{1, 4} {
		sess := core.NewSession(
			primitive.NewDictionary(primitive.Everything()),
			hw.Machine1(),
			core.WithVectorSize(256),
			core.WithSeed(7),
			core.WithParallelism(p),
		)
		b := build()
		tab, err := b.Bind(sess).Run(b.MainRoot())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("P=%d result (%d fragment sessions spawned):\n%s\n",
			p, len(sess.Fragments()), engine.TableString(tab, 5))
		out := engine.TableString(tab, 0)
		if p == 1 {
			serial = out
		} else if out == serial {
			fmt.Println("parallel result is bit-identical to the serial plan ✓")
		} else {
			log.Fatal("parallel result diverged from serial plan")
		}
	}
}
