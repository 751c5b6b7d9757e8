package tpch

import (
	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/plan"
	"microadapt/internal/vector"
)

// q17Plan is small-quantity-order revenue: lineitems below 20% of their
// part's average quantity, for one brand/container. The brand-filtered
// lineitems are shared by the per-part average and the join-back probe;
// the yearly division is a delivery step in Q17.
func q17Plan(db *DB) *plan.Builder {
	b := plan.New("Q17")
	partSel := b.Scan(db.Part, "p_partkey", "p_brand", "p_container").
		Select(
			plan.CmpVal(1, "==", "Brand#23"),
			plan.CmpVal(2, "==", "MED BOX"))
	li := semiJoin(b, partSel,
		b.Scan(db.Lineitem, "l_partkey", "l_quantity", "l_extendedprice"),
		"p_partkey", "l_partkey")
	avgAgg := li.Agg([]int{0}, engine.Agg(engine.AggAvg, 1, "avg_qty"))
	j := b.HashJoin(avgAgg, li, "l_partkey", "l_partkey", []string{"avg_qty"})
	proj := j.Project(
		engine.Keep("l_extendedprice", j.Idx("l_extendedprice")),
		engine.ProjExpr{Name: "qty_f", Expr: expr.CastF64(j.Col("l_quantity"))},
		engine.ProjExpr{Name: "limit_f", Expr: expr.Mul(j.Col("avg_qty"), &expr.ConstF64{V: 0.2})})
	sel := proj.Select(plan.CmpCol(1, "<", 2))
	sum := sel.Agg(nil, engine.Agg(engine.AggSum, 0, "sum_price"))
	b.NamedRoot("sum", sum)
	return b
}

// deliverQ17 finishes Q17 with the yearly division.
func deliverQ17(b *plan.Builder, ex *plan.Exec) (*engine.Table, error) {
	sumAgg, err := ex.Run(b.MainRoot())
	if err != nil {
		return nil, err
	}
	yearly := float64(scalarI64(sumAgg, "sum_price")) / 7.0
	return singleRow("q17", vector.Schema{{Name: "avg_yearly", Type: vector.F64}}, yearly), nil
}

// q18Plan is large-volume customers: orders whose total quantity exceeds
// 300.
func q18Plan(db *DB) *plan.Builder {
	b := plan.New("Q18")
	perOrder := b.Scan(db.Lineitem, "l_orderkey", "l_quantity").
		Agg([]int{0}, engine.Agg(engine.AggSum, 1, "sum_qty"))
	big := perOrder.Select(plan.CmpVal(1, ">", 300))
	j := b.HashJoin(big,
		b.Scan(db.Orders, "o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"),
		"l_orderkey", "o_orderkey", []string{"sum_qty"})
	j2 := b.HashJoin(
		b.Scan(db.Customer, "c_custkey", "c_name"),
		j, "c_custkey", "o_custkey", []string{"c_name"})
	b.Root(j2.TopN(100,
		engine.Desc(j2.Idx("o_totalprice")), engine.Asc(j2.Idx("o_orderdate"))))
	return b
}

// q19Branch declares one disjunct of Q19 (the branches are disjoint by
// brand, so their revenues add): a brand/container/quantity-filtered semi
// join aggregated to a branch revenue root.
func q19Branch(b *plan.Builder, db *DB, brand string, containers []string, qtyLo, qtyHi, sizeHi int) *plan.Node {
	li := b.Scan(db.Lineitem,
		"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode").
		Select(
			plan.InStr(5, "AIR", "REG AIR"),
			plan.CmpVal(4, "==", "DELIVER IN PERSON"),
			plan.CmpVal(1, ">=", qtyLo),
			plan.CmpVal(1, "<=", qtyHi))
	part := b.Scan(db.Part, "p_partkey", "p_brand", "p_container", "p_size").
		Select(
			plan.CmpVal(1, "==", brand),
			plan.InStr(2, containers...),
			plan.CmpVal(3, ">=", 1),
			plan.CmpVal(3, "<=", sizeHi))
	j := semiJoin(b, part, li, "p_partkey", "l_partkey")
	proj := j.Project(
		engine.ProjExpr{Name: "rev", Expr: revenue(j, "l_extendedprice", "l_discount")})
	return proj.Agg(nil, engine.Agg(engine.AggSum, 0, "revenue"))
}

// q19Plan is discounted revenue over three brand/container/quantity
// disjuncts, one plan root per branch.
func q19Plan(db *DB) *plan.Builder {
	b := plan.New("Q19")
	b.NamedRoot("b1", q19Branch(b, db, "Brand#12",
		[]string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5))
	b.NamedRoot("b2", q19Branch(b, db, "Brand#23",
		[]string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10))
	b.NamedRoot("b3", q19Branch(b, db, "Brand#34",
		[]string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15))
	return b
}

// deliverQ19 finishes Q19, summing the three branch roots.
func deliverQ19(b *plan.Builder, ex *plan.Exec) (*engine.Table, error) {
	var total int64
	for _, r := range b.Roots() {
		v, err := ex.ScalarI64(r.Node, "revenue")
		if err != nil {
			return nil, err
		}
		total += v
	}
	return singleRow("q19", vector.Schema{{Name: "revenue", Type: vector.I64}}, total), nil
}

// q20Plan is potential part promotion: suppliers of forest% parts whose
// availability exceeds half of the year's shipped quantity. The forest
// part list is a shared subtree feeding both semi joins.
func q20Plan(db *DB) *plan.Builder {
	b := plan.New("Q20")
	partForest := b.Scan(db.Part, "p_partkey", "p_name").
		Select(plan.Like(1, "forest%"))

	li := b.Scan(db.Lineitem, "l_partkey", "l_suppkey", "l_quantity", "l_shipdate").
		Select(
			plan.CmpVal(3, ">=", int(Date(1994, 1, 1))),
			plan.CmpVal(3, "<", int(Date(1995, 1, 1))))
	liForest := semiJoin(b, partForest, li, "p_partkey", "l_partkey")
	liPacked := liForest.Project(
		engine.ProjExpr{Name: "ps_key", Expr: packKey(liForest, "l_partkey", "l_suppkey")},
		engine.Keep("l_quantity", 2))
	qtyAgg := liPacked.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "sum_qty"))

	psForest := semiJoin(b, partForest,
		b.Scan(db.PartSupp, "ps_partkey", "ps_suppkey", "ps_availqty"),
		"p_partkey", "ps_partkey")
	psPacked := psForest.Project(
		engine.ProjExpr{Name: "ps_key", Expr: packKey(psForest, "ps_partkey", "ps_suppkey")},
		engine.Keep("ps_suppkey", 1),
		engine.ProjExpr{Name: "avail2", Expr: expr.Mul(
			expr.ToI64(psForest.Col("ps_availqty")), &expr.ConstI64{V: 2})})
	j := b.HashJoin(qtyAgg, psPacked, "ps_key", "ps_key", []string{"sum_qty"})
	excess := j.Select(plan.CmpCol(j.Idx("avail2"), ">", j.Idx("sum_qty")))
	suppKeys := excess.Agg([]int{excess.Idx("ps_suppkey")},
		engine.Agg(engine.AggCount, -1, "n"))

	suppCA := nationFilteredSuppliers(b, db, "CANADA")
	final := semiJoin(b, suppKeys, suppCA, "ps_suppkey", "s_suppkey")
	b.Root(final.Sort(engine.Asc(final.Idx("s_name"))))
	return b
}

// q21Plan is suppliers who kept orders waiting: the multi-exists query. Its
// hash joins carry bloom-filter pre-filters — the sel_bloomfilter primitive
// of Figure 11(d) and Table 8.
func q21Plan(db *DB) *plan.Builder {
	b := plan.New("Q21")
	// Distinct (orderkey, suppkey) pairs over all lineitems and over the
	// late lineitems.
	allPairs := b.Scan(db.Lineitem, "l_orderkey", "l_suppkey").
		Agg([]int{0, 1}, engine.Agg(engine.AggCount, -1, "n"))
	cntAll := allPairs.Agg([]int{0}, engine.Agg(engine.AggCount, -1, "nsupp"))
	multiSupp := cntAll.Select(plan.CmpVal(1, ">=", 2))

	late := b.Scan(db.Lineitem, "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate").
		Select(plan.CmpCol(3, ">", 2))
	latePairs := late.Agg([]int{0, 1}, engine.Agg(engine.AggCount, -1, "n"))
	cntLate := latePairs.Agg([]int{0}, engine.Agg(engine.AggCount, -1, "nlate"))
	soloLate := cntLate.Select(plan.CmpVal(1, "==", 1))

	// Candidate pairs: late pairs whose order has >=2 suppliers overall
	// and exactly one late supplier; bloom filters pay off because most
	// probes miss.
	cand := b.SemiJoin(multiSupp, latePairs, "l_orderkey", "l_orderkey", plan.WithBloom(8))
	cand2 := b.SemiJoin(soloLate, cand, "l_orderkey", "l_orderkey", plan.WithBloom(8))

	ordF := b.Scan(db.Orders, "o_orderkey", "o_orderstatus").
		Select(plan.CmpVal(1, "==", "F"))
	cand3 := b.SemiJoin(ordF, cand2, "o_orderkey", "l_orderkey", plan.WithBloom(8))

	suppSA := nationFilteredSuppliers(b, db, "SAUDI ARABIA")
	final := b.HashJoin(suppSA, cand3, "s_suppkey", "l_suppkey",
		[]string{"s_name"}, plan.WithBloom(8))
	agg := final.Agg([]int{final.Idx("s_name")},
		engine.Agg(engine.AggCount, -1, "numwait"))
	b.Root(agg.TopN(100, engine.Desc(1), engine.Asc(0)))
	return b
}

// q22Plan is global sales opportunity: well-funded customers in selected
// country codes with no orders. The code-filtered customers are a shared
// subtree, and the average positive balance filters the rich set as an
// in-plan scalar.
func q22Plan(db *DB) *plan.Builder {
	b := plan.New("Q22")
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	custScan := b.Scan(db.Customer, "c_custkey", "c_acctbal", "c_phone")
	custProj := custScan.Project(
		engine.Keep("c_custkey", 0),
		engine.Keep("c_acctbal", 1),
		engine.ProjExpr{Name: "cntrycode", Expr: &expr.Substr{Child: custScan.Col("c_phone"), From: 0, Len: 2}})
	custSel := custProj.Select(plan.InStr(2, codes...))

	posBal := custSel.Select(plan.CmpVal(1, ">", 0.0))
	avgAgg := posBal.Agg(nil, engine.Agg(engine.AggAvg, 1, "avg_bal"))
	rich := custSel.Select(
		plan.CmpScalar(1, ">", plan.ScalarOf(avgAgg, "avg_bal")))
	ordCust := b.Scan(db.Orders, "o_custkey").
		Agg([]int{0}, engine.Agg(engine.AggCount, -1, "n"))
	noOrders := b.AntiJoin(ordCust, rich, "o_custkey", "c_custkey")
	agg := noOrders.Agg([]int{2},
		engine.Agg(engine.AggCount, -1, "numcust"),
		engine.Agg(engine.AggSum, 1, "totacctbal"))
	b.Root(agg.Sort(engine.Asc(0)))
	return b
}
