package tpch

import (
	"sort"

	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/plan"
	"microadapt/internal/vector"
)

// q9Plan is product-type profit measure: %green% parts, the two-column
// partsupp join packed into one int64 key, profit per nation and year.
func q9Plan(db *DB) *plan.Builder {
	b := plan.New("Q9")
	partSel := b.Scan(db.Part, "p_partkey", "p_name").
		Select(plan.Like(1, "%green%"))
	li := semiJoin(b, partSel,
		b.Scan(db.Lineitem,
			"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"),
		"p_partkey", "l_partkey")
	liPacked := li.Project(
		engine.Keep("l_orderkey", 0),
		engine.Keep("l_suppkey", 2),
		engine.Keep("l_quantity", 3),
		engine.Keep("l_extendedprice", 4),
		engine.Keep("l_discount", 5),
		engine.ProjExpr{Name: "ps_key", Expr: packKey(li, "l_partkey", "l_suppkey")})

	psScan := b.Scan(db.PartSupp, "ps_partkey", "ps_suppkey", "ps_supplycost")
	psPacked := psScan.Project(
		engine.ProjExpr{Name: "ps_key", Expr: packKey(psScan, "ps_partkey", "ps_suppkey")},
		engine.Keep("ps_supplycost", 2))
	j1 := b.HashJoin(psPacked, liPacked, "ps_key", "ps_key", []string{"ps_supplycost"})

	mj := b.MergeJoin(
		b.Scan(db.Orders, "o_orderkey", "o_orderdate"),
		j1, "o_orderkey", "l_orderkey",
		[]string{"o_orderdate"},
		[]string{"l_suppkey", "l_quantity", "l_extendedprice", "l_discount", "ps_supplycost"})

	suppNat := b.HashJoin(
		b.Scan(db.Nation, "n_nationkey", "n_name"),
		b.Scan(db.Supplier, "s_suppkey", "s_nationkey"),
		"n_nationkey", "s_nationkey", []string{"n_name"})
	j2 := b.HashJoin(suppNat, mj, "s_suppkey", "l_suppkey", []string{"n_name"})

	amount := expr.Sub(
		revenue(j2, "l_extendedprice", "l_discount"),
		expr.Mul(j2.Col("ps_supplycost"), expr.ToI64(j2.Col("l_quantity"))))
	proj := j2.Project(
		engine.Keep("nation", j2.Idx("n_name")),
		engine.ProjExpr{Name: "o_year", Expr: yearOf(j2, "o_orderdate")},
		engine.ProjExpr{Name: "amount", Expr: amount})
	agg := proj.Agg([]int{0, 1}, engine.Agg(engine.AggSum, 2, "sum_profit"))
	b.Root(agg.Sort(engine.Asc(0), engine.Desc(1)))
	return b
}

// q10Plan is returned-item reporting: revenue lost to returns per customer
// in a quarter, top 20.
func q10Plan(db *DB) *plan.Builder {
	b := plan.New("Q10")
	ord := b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_orderdate").
		Select(
			plan.CmpVal(2, ">=", int(Date(1993, 10, 1))),
			plan.CmpVal(2, "<", int(Date(1994, 1, 1))))
	li := b.Scan(db.Lineitem, "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag").
		Select(plan.CmpVal(3, "==", "R"))
	mj := b.MergeJoin(ord, li, "o_orderkey", "l_orderkey",
		[]string{"o_custkey"},
		[]string{"l_extendedprice", "l_discount"})
	proj := mj.Project(
		engine.Keep("o_custkey", 0),
		engine.ProjExpr{Name: "rev", Expr: revenue(mj, "l_extendedprice", "l_discount")})
	agg := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "revenue"))
	j := b.HashJoin(
		b.Scan(db.Customer, "c_custkey", "c_name", "c_acctbal", "c_nationkey", "c_phone"),
		agg, "c_custkey", "o_custkey",
		[]string{"c_name", "c_acctbal", "c_nationkey", "c_phone"})
	j2 := b.HashJoin(
		b.Scan(db.Nation, "n_nationkey", "n_name"),
		j, "n_nationkey", "c_nationkey", []string{"n_name"})
	b.Root(j2.TopN(20, engine.Desc(j2.Idx("revenue"))))
	return b
}

// q11Plan is important-stock identification in GERMANY. The HAVING
// threshold is a scalar subplan inside the plan: the shared value
// projection is materialized once, the global sum resolves to a constant
// (divided by 10000), and the per-part aggregate filters against it.
func q11Plan(db *DB) *plan.Builder {
	b := plan.New("Q11")
	suppDE := nationFilteredSuppliers(b, db, "GERMANY")
	ps := b.SemiJoin(suppDE,
		b.Scan(db.PartSupp, "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"),
		"s_suppkey", "ps_suppkey")
	proj := ps.Project(
		engine.Keep("ps_partkey", 0),
		engine.ProjExpr{Name: "value", Expr: expr.Mul(
			ps.Col("ps_supplycost"), expr.ToI64(ps.Col("ps_availqty")))})
	totalAgg := proj.Agg(nil, engine.Agg(engine.AggSum, 1, "total"))
	perPart := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "value"))
	sel := perPart.Select(
		plan.CmpScalar(1, ">", plan.ScalarOf(totalAgg, "total").DivBy(10000)))
	b.Root(sel.Sort(engine.Desc(1)))
	return b
}

// q12Plan is the shipping-modes query of Figure 2: the receiptdate range
// selection runs over date-clustered lineitem, so its selectivity is ~0,
// then ~100%, then drops — the non-stationary case that motivates
// vw-greedy. orders-lineitem is the merge join of Figure 4(d). Partitioned,
// every morsel reproduces that profile on its own range.
func q12Plan(db *DB) *plan.Builder {
	b := plan.New("Q12")
	li := b.Scan(db.Lineitem,
		"l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate").
		Select(
			plan.CmpVal(4, ">=", int(Date(1994, 1, 1))),
			plan.CmpVal(4, "<", int(Date(1995, 1, 1))),
			plan.InStr(1, "MAIL", "SHIP"),
			plan.CmpCol(3, "<", 4),
			plan.CmpCol(2, "<", 3))
	mj := b.MergeJoin(
		b.Scan(db.Orders, "o_orderkey", "o_orderpriority"),
		li, "o_orderkey", "l_orderkey",
		[]string{"o_orderpriority"},
		[]string{"l_shipmode"})
	proj := mj.Project(
		engine.Keep("l_shipmode", 1),
		engine.ProjExpr{Name: "high_line", Expr: &expr.CaseInStr{
			Col: mj.Col("o_orderpriority"), Values: []string{"1-URGENT", "2-HIGH"}, Then: 1, Else: 0}},
		engine.ProjExpr{Name: "low_line", Expr: &expr.CaseInStr{
			Col: mj.Col("o_orderpriority"), Values: []string{"1-URGENT", "2-HIGH"}, Then: 0, Else: 1}})
	agg := proj.Agg([]int{0},
		engine.Agg(engine.AggSum, 1, "high_line_count"),
		engine.Agg(engine.AggSum, 2, "low_line_count"))
	b.Root(agg.Sort(engine.Asc(0)))
	return b
}

// q13Plan is customer order-count distribution. The per-customer aggregate
// is shared by the distribution root and by the anti join counting
// zero-order customers; the zero bucket and the final ordering are a
// delivery step in Q13.
func q13Plan(db *DB) *plan.Builder {
	b := plan.New("Q13")
	ord := b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_comment").
		Select(plan.NotLike(2, "%special%requests%"))
	perCust := ord.Agg([]int{1}, engine.Agg(engine.AggCount, -1, "c_count"))
	dist := perCust.Agg([]int{1}, engine.Agg(engine.AggCount, -1, "custdist"))
	b.NamedRoot("dist", dist)
	anti := b.AntiJoin(perCust,
		b.Scan(db.Customer, "c_custkey"),
		"o_custkey", "c_custkey")
	zero := anti.Agg(nil, engine.Agg(engine.AggCount, -1, "n"))
	b.NamedRoot("zero", zero)
	return b
}

// deliverQ13 finishes Q13: both plan roots share the per-customer
// aggregate, and the zero-order bucket plus the distribution ordering are
// assembled here.
func deliverQ13(b *plan.Builder, ex *plan.Exec) (*engine.Table, error) {
	roots := b.Roots()
	distTab, err := ex.Run(roots[0].Node)
	if err != nil {
		return nil, err
	}
	zeros, err := ex.ScalarI64(roots[1].Node, "n")
	if err != nil {
		return nil, err
	}

	counts := append([]int64(nil), distTab.Col("c_count").I64()[:distTab.Rows()]...)
	dists := append([]int64(nil), distTab.Col("custdist").I64()[:distTab.Rows()]...)
	if zeros > 0 {
		counts = append(counts, 0)
		dists = append(dists, zeros)
	}
	ordIdx := make([]int, len(counts))
	for i := range ordIdx {
		ordIdx[i] = i
	}
	sort.Slice(ordIdx, func(a, b int) bool {
		ia, ib := ordIdx[a], ordIdx[b]
		if dists[ia] != dists[ib] {
			return dists[ia] > dists[ib]
		}
		return counts[ia] > counts[ib]
	})
	oc := make([]int64, len(counts))
	od := make([]int64, len(counts))
	for i, j := range ordIdx {
		oc[i], od[i] = counts[j], dists[j]
	}
	return engine.NewTable("q13", vector.Schema{
		{Name: "c_count", Type: vector.I64},
		{Name: "custdist", Type: vector.I64},
	}, []*vector.Vector{vector.FromI64(oc), vector.FromI64(od)}), nil
}

// q14Plan is promotion effect: the share of promo-part revenue in a month.
// Its shipdate selection is the Figure 11(a) instance; the share division
// is a delivery step in Q14.
func q14Plan(db *DB) *plan.Builder {
	b := plan.New("Q14")
	li := b.Scan(db.Lineitem, "l_partkey", "l_extendedprice", "l_discount", "l_shipdate").
		Select(
			plan.CmpVal(3, ">=", int(Date(1995, 9, 1))),
			plan.CmpVal(3, "<", int(Date(1995, 10, 1))))
	j := b.HashJoin(
		b.Scan(db.Part, "p_partkey", "p_type"),
		li, "p_partkey", "l_partkey", []string{"p_type"})
	rev := revenue(j, "l_extendedprice", "l_discount")
	proj := j.Project(
		engine.ProjExpr{Name: "rev", Expr: rev},
		engine.ProjExpr{Name: "promo_rev", Expr: expr.Mul(
			&expr.CaseLikeStr{Col: j.Col("p_type"), Pattern: "PROMO%", Then: 1, Else: 0},
			rev)})
	agg := proj.Agg(nil,
		engine.Agg(engine.AggSum, 1, "promo"),
		engine.Agg(engine.AggSum, 0, "total"))
	b.NamedRoot("agg", agg)
	return b
}

// deliverQ14 finishes Q14 with the promo-share division.
func deliverQ14(b *plan.Builder, ex *plan.Exec) (*engine.Table, error) {
	agg, err := ex.Run(b.MainRoot())
	if err != nil {
		return nil, err
	}
	promo, total := scalarI64(agg, "promo"), scalarI64(agg, "total")
	share := 0.0
	if total != 0 {
		share = 100 * float64(promo) / float64(total)
	}
	return singleRow("q14",
		vector.Schema{{Name: "promo_revenue", Type: vector.F64}}, share), nil
}

// q15Plan is top supplier: suppliers achieving the maximum quarterly
// revenue. The per-supplier revenue aggregate is shared by the max subplan
// and the best-supplier filter, whose constant is the max as an in-plan
// scalar.
func q15Plan(db *DB) *plan.Builder {
	b := plan.New("Q15")
	li := b.Scan(db.Lineitem, "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate").
		Select(
			plan.CmpVal(3, ">=", int(Date(1996, 1, 1))),
			plan.CmpVal(3, "<", int(Date(1996, 4, 1))))
	proj := li.Project(
		engine.Keep("l_suppkey", 0),
		engine.ProjExpr{Name: "rev", Expr: revenue(li, "l_extendedprice", "l_discount")})
	revAgg := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "total_revenue"))
	maxAgg := revAgg.Agg(nil, engine.Agg(engine.AggMax, 1, "max_rev"))
	best := revAgg.Select(
		plan.CmpScalar(1, "==", plan.ScalarOf(maxAgg, "max_rev")))
	j := b.HashJoin(
		b.Scan(db.Supplier, "s_suppkey", "s_name", "s_phone"),
		best, "s_suppkey", "l_suppkey", []string{"s_name", "s_phone"})
	b.Root(j.Sort(engine.Asc(0)))
	return b
}

// q16Plan is parts/supplier relationship: distinct supplier counts per
// (brand, type, size) excluding complained-about suppliers.
func q16Plan(db *DB) *plan.Builder {
	b := plan.New("Q16")
	partSel := b.Scan(db.Part, "p_partkey", "p_brand", "p_type", "p_size").
		Select(
			plan.CmpVal(1, "!=", "Brand#45"),
			plan.NotLike(2, "MEDIUM POLISHED%"),
			plan.InI32(3, 49, 14, 23, 45, 19, 3, 36, 9))
	j := b.HashJoin(partSel,
		b.Scan(db.PartSupp, "ps_partkey", "ps_suppkey"),
		"p_partkey", "ps_partkey", []string{"p_brand", "p_type", "p_size"})
	badSupp := b.Scan(db.Supplier, "s_suppkey", "s_comment").
		Select(plan.Like(1, "%Customer%Complaints%"))
	j2 := b.AntiJoin(badSupp, j, "s_suppkey", "ps_suppkey")
	distinct := j2.Agg(
		[]int{j2.Idx("p_brand"), j2.Idx("p_type"), j2.Idx("p_size"), j2.Idx("ps_suppkey")},
		engine.Agg(engine.AggCount, -1, "n"))
	cnt := distinct.Agg([]int{0, 1, 2}, engine.Agg(engine.AggCount, -1, "supplier_cnt"))
	b.Root(cnt.Sort(engine.Desc(3), engine.Asc(0), engine.Asc(1), engine.Asc(2)))
	return b
}
