package tpch

import (
	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/plan"
	"microadapt/internal/vector"
)

// q1Plan is the pricing summary report: one pass over lineitem with a date
// selection, two map-heavy projected expressions, and an aggregation
// grouped on (returnflag, linestatus). It is the query of Figures 4(a),
// 4(b) and 11(c) in the paper. The planner derives the scan→select→project
// prefix as morsel-partitionable: under pipeline parallelism each morsel of
// lineitem runs the full stack on its own fragment session.
func q1Plan(db *DB) *plan.Builder {
	b := plan.New("Q1")
	scan := b.Scan(db.Lineitem,
		"l_quantity", "l_extendedprice", "l_discount", "l_tax",
		"l_returnflag", "l_linestatus", "l_shipdate")
	sel := scan.Select(plan.CmpVal(6, "<=", int(Date(1998, 9, 2))))
	discPrice := revenue(sel, "l_extendedprice", "l_discount")
	charge := expr.Div(
		expr.Mul(discPrice, expr.Add(&expr.ConstI64{V: 100}, sel.Col("l_tax"))),
		&expr.ConstI64{V: 100})
	proj := sel.Project(
		engine.Keep("l_returnflag", 4),
		engine.Keep("l_linestatus", 5),
		engine.Keep("l_quantity", 0),
		engine.Keep("l_extendedprice", 1),
		engine.ProjExpr{Name: "disc_price", Expr: discPrice},
		engine.ProjExpr{Name: "charge", Expr: charge},
		engine.Keep("l_discount", 2),
	)
	agg := proj.Agg([]int{0, 1},
		engine.Agg(engine.AggSum, 2, "sum_qty"),
		engine.Agg(engine.AggSum, 3, "sum_base_price"),
		engine.Agg(engine.AggSum, 4, "sum_disc_price"),
		engine.Agg(engine.AggSum, 5, "sum_charge"),
		engine.Agg(engine.AggAvg, 2, "avg_qty"),
		engine.Agg(engine.AggAvg, 3, "avg_price"),
		engine.Agg(engine.AggAvg, 6, "avg_disc"),
		engine.Agg(engine.AggCount, -1, "count_order"),
	)
	b.Root(agg.Sort(engine.Asc(0), engine.Asc(1)))
	return b
}

// q2Plan finds the minimum-cost supplier per part in EUROPE for size-15
// %BRASS parts; the min-cost correlated subquery is an aggregate over the
// shared join result (materialized once by the planner) joined back.
func q2Plan(db *DB) *plan.Builder {
	b := plan.New("Q2")
	partSel := b.Scan(db.Part, "p_partkey", "p_mfgr", "p_size", "p_type").
		Select(plan.CmpVal(2, "==", 15), plan.Like(3, "%BRASS"))

	ps := b.Scan(db.PartSupp, "ps_partkey", "ps_suppkey", "ps_supplycost")
	j1 := b.HashJoin(partSel, ps, "p_partkey", "ps_partkey", []string{"p_mfgr"})

	supp := b.Scan(db.Supplier, "s_suppkey", "s_name", "s_nationkey", "s_acctbal")
	j2 := b.HashJoin(supp, j1, "s_suppkey", "ps_suppkey",
		[]string{"s_name", "s_acctbal", "s_nationkey"})

	regSel := b.Scan(db.Region, "r_regionkey", "r_name").
		Select(plan.CmpVal(1, "==", "EUROPE"))
	natScan := b.Scan(db.Nation, "n_nationkey", "n_name", "n_regionkey")
	natEur := semiJoin(b, regSel, natScan, "r_regionkey", "n_regionkey")
	j3 := b.HashJoin(natEur, j2, "n_nationkey", "s_nationkey", []string{"n_name"})

	// j3 feeds both the per-part minimum and the join-back probe: the
	// planner materializes it once.
	minAgg := j3.Agg([]int{j3.Idx("ps_partkey")},
		engine.Agg(engine.AggMin, j3.Idx("ps_supplycost"), "min_cost"))
	back := b.HashJoin(minAgg, j3, "ps_partkey", "ps_partkey", []string{"min_cost"})
	final := back.Select(plan.CmpCol(back.Idx("ps_supplycost"), "==", back.Idx("min_cost")))
	b.Root(final.TopN(100,
		engine.Desc(final.Idx("s_acctbal")),
		engine.Asc(final.Idx("n_name")),
		engine.Asc(final.Idx("s_name")),
		engine.Asc(final.Idx("ps_partkey"))))
	return b
}

// q3Plan is the shipping-priority query: BUILDING customers, pre-date
// orders, post-date lineitems, top-10 revenue. orders-lineitem is a merge
// join on the clustered orderkey.
func q3Plan(db *DB) *plan.Builder {
	b := plan.New("Q3")
	cutoff := int(Date(1995, 3, 15))
	cust := b.Scan(db.Customer, "c_custkey", "c_mktsegment").
		Select(plan.CmpVal(1, "==", "BUILDING"))
	ord := b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority").
		Select(plan.CmpVal(2, "<", cutoff))
	ordB := semiJoin(b, cust, ord, "c_custkey", "o_custkey")

	li := b.Scan(db.Lineitem, "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate").
		Select(plan.CmpVal(3, ">", cutoff))
	mj := b.MergeJoin(ordB, li, "o_orderkey", "l_orderkey",
		[]string{"o_orderkey", "o_orderdate", "o_shippriority"},
		[]string{"l_extendedprice", "l_discount"})
	proj := mj.Project(
		engine.Keep("o_orderkey", 0),
		engine.Keep("o_orderdate", 1),
		engine.Keep("o_shippriority", 2),
		engine.ProjExpr{Name: "rev", Expr: revenue(mj, "l_extendedprice", "l_discount")},
	)
	agg := proj.Agg([]int{0, 1, 2}, engine.Agg(engine.AggSum, 3, "revenue"))
	b.Root(agg.TopN(10, engine.Desc(3), engine.Asc(1)))
	return b
}

// q4Plan is the order-priority check: orders in a quarter having at least
// one late lineitem (semi join), counted per priority.
func q4Plan(db *DB) *plan.Builder {
	b := plan.New("Q4")
	late := b.Scan(db.Lineitem, "l_orderkey", "l_commitdate", "l_receiptdate").
		Select(plan.CmpCol(1, "<", 2))
	ord := b.Scan(db.Orders, "o_orderkey", "o_orderdate", "o_orderpriority").
		Select(
			plan.CmpVal(1, ">=", int(Date(1993, 7, 1))),
			plan.CmpVal(1, "<", int(Date(1993, 10, 1))))
	j := semiJoin(b, late, ord, "l_orderkey", "o_orderkey")
	agg := j.Agg([]int{2}, engine.Agg(engine.AggCount, -1, "order_count"))
	b.Root(agg.Sort(engine.Asc(0)))
	return b
}

// q5Plan is local-supplier volume in ASIA for 1994: a five-way join with
// the customer-nation = supplier-nation constraint as a column-column
// select.
func q5Plan(db *DB) *plan.Builder {
	b := plan.New("Q5")
	regSel := b.Scan(db.Region, "r_regionkey", "r_name").
		Select(plan.CmpVal(1, "==", "ASIA"))
	nat := semiJoin(b, regSel,
		b.Scan(db.Nation, "n_nationkey", "n_name", "n_regionkey"),
		"r_regionkey", "n_regionkey")
	supp := b.HashJoin(nat,
		b.Scan(db.Supplier, "s_suppkey", "s_nationkey"),
		"n_nationkey", "s_nationkey", []string{"n_name"})

	ord := b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_orderdate").
		Select(
			plan.CmpVal(2, ">=", int(Date(1994, 1, 1))),
			plan.CmpVal(2, "<", int(Date(1995, 1, 1))))
	mj := b.MergeJoin(ord,
		b.Scan(db.Lineitem, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
		"o_orderkey", "l_orderkey",
		[]string{"o_custkey"},
		[]string{"l_suppkey", "l_extendedprice", "l_discount"})
	j2 := b.HashJoin(supp, mj, "s_suppkey", "l_suppkey", []string{"n_name", "s_nationkey"})
	j3 := b.HashJoin(
		b.Scan(db.Customer, "c_custkey", "c_nationkey"),
		j2, "c_custkey", "o_custkey", []string{"c_nationkey"})
	filt := j3.Select(plan.CmpCol(j3.Idx("s_nationkey"), "==", j3.Idx("c_nationkey")))
	proj := filt.Project(
		engine.Keep("n_name", filt.Idx("n_name")),
		engine.ProjExpr{Name: "rev", Expr: revenue(filt, "l_extendedprice", "l_discount")})
	agg := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "revenue"))
	b.Root(agg.Sort(engine.Desc(1)))
	return b
}

// q6Plan is the forecasting revenue-change query: three selections on one
// lineitem scan and a global aggregate — the paper's canonical selection-
// dominated query (the biggest heuristics/adaptivity win in Table 11).
func q6Plan(db *DB) *plan.Builder {
	b := plan.New("Q6")
	sel := b.Scan(db.Lineitem, "l_shipdate", "l_discount", "l_quantity", "l_extendedprice").
		Select(
			plan.CmpVal(0, ">=", int(Date(1994, 1, 1))),
			plan.CmpVal(0, "<", int(Date(1995, 1, 1))),
			plan.CmpVal(1, ">=", 5),
			plan.CmpVal(1, "<=", 7),
			plan.CmpVal(2, "<", 24))
	proj := sel.Project(
		engine.ProjExpr{Name: "rev", Expr: expr.Div(
			expr.Mul(sel.Col("l_extendedprice"), sel.Col("l_discount")),
			&expr.ConstI64{V: 100})})
	b.Root(proj.Agg(nil, engine.Agg(engine.AggSum, 0, "revenue")))
	return b
}

// q7Plan is the volume-shipping query between FRANCE and GERMANY, grouped
// by the shipping year; orders-lineitem runs as the merge join of
// Figure 4(c). The nation pair is a shared subtree feeding both the
// supplier and the customer joins; renames are projections.
func q7Plan(db *DB) *plan.Builder {
	b := plan.New("Q7")
	natPair := b.Scan(db.Nation, "n_nationkey", "n_name").
		Select(plan.InStr(1, "FRANCE", "GERMANY"))
	suppJ := b.HashJoin(natPair,
		b.Scan(db.Supplier, "s_suppkey", "s_nationkey"),
		"n_nationkey", "s_nationkey", []string{"n_name"})
	suppRen := suppJ.Project(
		engine.Keep("s_suppkey", 0),
		engine.Keep("s_nationkey", 1),
		engine.Keep("supp_nation", 2))
	custJ := b.HashJoin(natPair,
		b.Scan(db.Customer, "c_custkey", "c_nationkey"),
		"n_nationkey", "c_nationkey", []string{"n_name"})
	custRen := custJ.Project(
		engine.Keep("c_custkey", 0),
		engine.Keep("c_nationkey", 1),
		engine.Keep("cust_nation", 2))

	li := b.Scan(db.Lineitem, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate").
		Select(
			plan.CmpVal(4, ">=", int(Date(1995, 1, 1))),
			plan.CmpVal(4, "<=", int(Date(1996, 12, 31))))
	mj := b.MergeJoin(
		b.Scan(db.Orders, "o_orderkey", "o_custkey"),
		li, "o_orderkey", "l_orderkey",
		[]string{"o_custkey"},
		[]string{"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"})
	j1 := b.HashJoin(suppRen, mj, "s_suppkey", "l_suppkey", []string{"supp_nation"})
	j2 := b.HashJoin(custRen, j1, "c_custkey", "o_custkey", []string{"cust_nation"})
	pairSel := j2.Select(plan.CmpCol(j2.Idx("supp_nation"), "!=", j2.Idx("cust_nation")))
	proj := pairSel.Project(
		engine.Keep("supp_nation", pairSel.Idx("supp_nation")),
		engine.Keep("cust_nation", pairSel.Idx("cust_nation")),
		engine.ProjExpr{Name: "l_year", Expr: yearOf(pairSel, "l_shipdate")},
		engine.ProjExpr{Name: "volume", Expr: revenue(pairSel, "l_extendedprice", "l_discount")})
	agg := proj.Agg([]int{0, 1, 2}, engine.Agg(engine.AggSum, 3, "revenue"))
	b.Root(agg.Sort(engine.Asc(0), engine.Asc(1), engine.Asc(2)))
	return b
}

// q8Plan is national market share: BRAZIL's fraction of AMERICA's ECONOMY
// ANODIZED STEEL volume per year, via an indicator CASE expression; the
// final share division is a delivery step in Q8.
func q8Plan(db *DB) *plan.Builder {
	b := plan.New("Q8")
	partSel := b.Scan(db.Part, "p_partkey", "p_type").
		Select(plan.CmpVal(1, "==", "ECONOMY ANODIZED STEEL"))
	li := semiJoin(b, partSel,
		b.Scan(db.Lineitem, "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"),
		"p_partkey", "l_partkey")
	ord := b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_orderdate").
		Select(
			plan.CmpVal(2, ">=", int(Date(1995, 1, 1))),
			plan.CmpVal(2, "<=", int(Date(1996, 12, 31))))
	mj := b.MergeJoin(ord, li, "o_orderkey", "l_orderkey",
		[]string{"o_custkey", "o_orderdate"},
		[]string{"l_suppkey", "l_extendedprice", "l_discount"})

	regSel := b.Scan(db.Region, "r_regionkey", "r_name").
		Select(plan.CmpVal(1, "==", "AMERICA"))
	natAm := semiJoin(b, regSel,
		b.Scan(db.Nation, "n_nationkey", "n_regionkey"),
		"r_regionkey", "n_regionkey")
	custAm := semiJoin(b, natAm,
		b.Scan(db.Customer, "c_custkey", "c_nationkey"),
		"n_nationkey", "c_nationkey")
	j1 := semiJoin(b, custAm, mj, "c_custkey", "o_custkey")

	suppNat := b.HashJoin(
		b.Scan(db.Nation, "n_nationkey", "n_name"),
		b.Scan(db.Supplier, "s_suppkey", "s_nationkey"),
		"n_nationkey", "s_nationkey", []string{"n_name"})
	j2 := b.HashJoin(suppNat, j1, "s_suppkey", "l_suppkey", []string{"n_name"})

	vol := revenue(j2, "l_extendedprice", "l_discount")
	proj := j2.Project(
		engine.ProjExpr{Name: "o_year", Expr: yearOf(j2, "o_orderdate")},
		engine.ProjExpr{Name: "volume", Expr: vol},
		engine.ProjExpr{Name: "brazil_volume", Expr: expr.Mul(
			&expr.CaseEqStr{Col: j2.Col("n_name"), Value: "BRAZIL", Then: 1, Else: 0},
			vol)})
	agg := proj.Agg([]int{0},
		engine.Agg(engine.AggSum, 2, "brazil_volume"),
		engine.Agg(engine.AggSum, 1, "total_volume"))
	b.NamedRoot("agg", agg.Sort(engine.Asc(0)))
	return b
}

// deliverQ8 finishes Q8: the plan delivers per-year brazil/total volumes,
// and the share division happens here.
func deliverQ8(b *plan.Builder, ex *plan.Exec) (*engine.Table, error) {
	aggTab, err := ex.Run(b.MainRoot())
	if err != nil {
		return nil, err
	}
	years := aggTab.Col("o_year").I64()[:aggTab.Rows()]
	br := aggTab.Col("brazil_volume").I64()[:aggTab.Rows()]
	tot := aggTab.Col("total_volume").I64()[:aggTab.Rows()]
	share := make([]float64, aggTab.Rows())
	for i := range share {
		if tot[i] != 0 {
			share[i] = float64(br[i]) / float64(tot[i])
		}
	}
	return engine.NewTable("q8", vector.Schema{
		{Name: "o_year", Type: vector.I64},
		{Name: "mkt_share", Type: vector.F64},
	}, []*vector.Vector{vector.FromI64(years), vector.FromF64(share)}), nil
}
