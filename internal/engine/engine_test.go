package engine

import (
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/expr"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

func testSession(t testing.TB) *core.Session {
	t.Helper()
	return core.NewSession(primitive.NewDictionary(primitive.Everything()),
		hw.Machine1(), core.WithVectorSize(16), core.WithSeed(5))
}

// numbersTable builds a small table: id 0..n-1, val = id*10, name "s<id%3>".
func numbersTable(n int) *Table {
	ids := make([]int32, n)
	vals := make([]int64, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i)
		vals[i] = int64(i * 10)
		names[i] = string(rune('a' + i%3))
	}
	return NewTable("numbers",
		vector.Schema{
			{Name: "id", Type: vector.I32},
			{Name: "val", Type: vector.I64},
			{Name: "name", Type: vector.Str},
		},
		[]*vector.Vector{vector.FromI32(ids), vector.FromI64(vals), vector.FromStr(names)})
}

func TestScanBatches(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(40)
	scan := NewScan(s, tab, "id", "val")
	out, err := Materialize(scan)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Rows(); got != 40 {
		t.Fatalf("rows = %d, want 40", got)
	}
	batches := 0
	if err := Drain(scan, func(*vector.Batch) error { batches++; return nil }); err != nil {
		t.Fatal(err)
	}
	if batches != 3 { // 16+16+8
		t.Errorf("batches = %d, want 3", batches)
	}
	if len(scan.Schema()) != 2 {
		t.Errorf("schema = %v", scan.Schema())
	}
}

func TestSelectConstAndColCol(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(50)
	sel := NewSelect(s, NewScan(s, tab), "t",
		CmpVal(0, ">=", 10),
		CmpVal(0, "<", 30))
	out, err := Materialize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 20 {
		t.Fatalf("rows = %d, want 20", out.Rows())
	}
	if out.Col("id").GetI64(0) != 10 {
		t.Errorf("first id = %d", out.Col("id").GetI64(0))
	}

	// Column-column comparison (both columns must share a type).
	s2 := testSession(t)
	tab2 := NewTable("cc",
		vector.Schema{{Name: "a", Type: vector.I64}, {Name: "b", Type: vector.I64}},
		[]*vector.Vector{
			vector.FromI64([]int64{1, 5, 3, 9, 2}),
			vector.FromI64([]int64{2, 4, 3, 1, 8}),
		})
	eq := NewSelect(s2, NewScan(s2, tab2), "t2", CmpCol(0, "<", 1))
	out2, err := Materialize(eq)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 2 { // rows (1,2) and (2,8)
		t.Errorf("col-col rows = %d, want 2", out2.Rows())
	}
}

func TestSelectStringOps(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(30)
	sel := NewSelect(s, NewScan(s, tab), "t", CmpVal(2, "==", "a"))
	out, err := Materialize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 10 {
		t.Errorf("eq rows = %d, want 10", out.Rows())
	}

	s2 := testSession(t)
	in := NewSelect(s2, NewScan(s2, tab), "t", InStr(2, "a", "b"))
	out2, err := Materialize(in)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 20 {
		t.Errorf("in rows = %d, want 20", out2.Rows())
	}
}

func TestSelectLike(t *testing.T) {
	s := testSession(t)
	tab := NewTable("t", vector.Schema{{Name: "s", Type: vector.Str}},
		[]*vector.Vector{vector.FromStr([]string{
			"PROMO BRUSHED STEEL", "STANDARD BRASS", "PROMO TIN", "LARGE BRASS", "special requests here",
		})})
	cases := []struct {
		pred Pred
		want int
	}{
		{Like(0, "PROMO%"), 2},
		{Like(0, "%BRASS"), 2},
		{Like(0, "%special%requests%"), 1},
		{NotLike(0, "PROMO%"), 3},
		{Like(0, "PROMO TIN"), 1},
	}
	for i, c := range cases {
		sel := NewSelect(s, NewScan(s, tab), labelf("t%d", i), c.pred)
		out, err := Materialize(sel)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != c.want {
			t.Errorf("case %d: rows = %d, want %d", i, out.Rows(), c.want)
		}
	}
}

func TestSelectInI32(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(20)
	sel := NewSelect(s, NewScan(s, tab), "t", InI32(0, 3, 7, 11, 99))
	out, err := Materialize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Errorf("rows = %d, want 3", out.Rows())
	}
}

func TestSelectEmptyBatchesPropagate(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(32)
	sel := NewSelect(s, NewScan(s, tab), "t", CmpVal(0, ">", 1000))
	if err := sel.Open(); err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	batches := 0
	for {
		b, err := sel.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		if b.Live() != 0 {
			t.Error("expected empty selection")
		}
	}
	// Empty batches keep flowing so downstream instances keep their call
	// cadence (the Figure 2 tail).
	if batches != 2 {
		t.Errorf("batches = %d, want 2", batches)
	}
}

func TestProjectArithmetic(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(20)
	scan := NewScan(s, tab)
	proj := NewProject(s, scan, "p",
		Keep("id", 0),
		ProjExpr{Name: "twice", Expr: expr.Mul(&expr.Col{Idx: 1}, &expr.ConstI64{V: 2})},
		ProjExpr{Name: "plus", Expr: expr.Add(&expr.Col{Idx: 1}, &expr.ConstI64{V: 5})},
	)
	out, err := Materialize(proj)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < out.Rows(); r++ {
		id := out.Col("id").GetI64(r)
		if got := out.Col("twice").GetI64(r); got != id*20 {
			t.Fatalf("row %d: twice = %d, want %d", r, got, id*20)
		}
		if got := out.Col("plus").GetI64(r); got != id*10+5 {
			t.Fatalf("row %d: plus = %d, want %d", r, got, id*10+5)
		}
	}
}

func TestProjectUnderSelection(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(30)
	sel := NewSelect(s, NewScan(s, tab), "t", CmpVal(0, ">=", 15))
	proj := NewProject(s, sel, "p",
		Keep("id", 0),
		ProjExpr{Name: "v2", Expr: expr.Mul(&expr.Col{Idx: 1}, &expr.ConstI64{V: 3})})
	out, err := Materialize(proj)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 15 {
		t.Fatalf("rows = %d, want 15", out.Rows())
	}
	for r := 0; r < out.Rows(); r++ {
		if out.Col("v2").GetI64(r) != out.Col("id").GetI64(r)*30 {
			t.Fatal("projection under selection computed wrong values")
		}
	}
}

func TestHashAggGlobalAndGrouped(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(30)
	global := NewHashAgg(s, NewScan(s, tab), "g", nil,
		Agg(AggSum, 1, "sum"),
		Agg(AggCount, -1, "cnt"),
		Agg(AggMin, 1, "min"),
		Agg(AggMax, 1, "max"),
		Agg(AggAvg, 1, "avg"))
	out, err := Materialize(global)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 {
		t.Fatalf("global agg rows = %d", out.Rows())
	}
	if got := out.Col("sum").GetI64(0); got != 4350 { // 10*(0+..+29)
		t.Errorf("sum = %d, want 4350", got)
	}
	if out.Col("cnt").GetI64(0) != 30 || out.Col("min").GetI64(0) != 0 || out.Col("max").GetI64(0) != 290 {
		t.Error("count/min/max wrong")
	}
	if got := out.Col("avg").GetF64(0); got != 145 {
		t.Errorf("avg = %v, want 145", got)
	}

	s2 := testSession(t)
	grouped := NewHashAgg(s2, NewScan(s2, tab), "gg", []int{2},
		Agg(AggCount, -1, "cnt"))
	out2, err := Materialize(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 3 {
		t.Fatalf("groups = %d, want 3", out2.Rows())
	}
	for r := 0; r < 3; r++ {
		if out2.Col("cnt").GetI64(r) != 10 {
			t.Errorf("group %d count = %d, want 10", r, out2.Col("cnt").GetI64(r))
		}
	}
}

func TestHashAggIntKeysAndPack2(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(40)
	// Single int key: id % nothing... group by id/10 via project first.
	proj := NewProject(s, NewScan(s, tab), "p",
		ProjExpr{Name: "bucket", Expr: expr.Div(expr.ToI64(&expr.Col{Idx: 0}), &expr.ConstI64{V: 10})},
		Keep("val", 1),
		Keep("id", 0))
	agg := NewHashAgg(s, proj, "a", []int{0}, Agg(AggCount, -1, "cnt"))
	out, err := Materialize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 4 {
		t.Fatalf("buckets = %d, want 4", out.Rows())
	}

	// Two 32-bit int keys exercise the packed path.
	s2 := testSession(t)
	tab2 := NewTable("t2",
		vector.Schema{{Name: "a", Type: vector.I32}, {Name: "b", Type: vector.I32}},
		[]*vector.Vector{
			vector.FromI32([]int32{1, 1, 2, 2, 1, -1}),
			vector.FromI32([]int32{5, 5, 5, 6, 5, 5}),
		})
	agg2 := NewHashAgg(s2, NewScan(s2, tab2), "a2", []int{0, 1}, Agg(AggCount, -1, "cnt"))
	out2, err := Materialize(agg2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 4 { // (1,5),(2,5),(2,6),(-1,5)
		t.Fatalf("pack2 groups = %d, want 4", out2.Rows())
	}
	var total int64
	for r := 0; r < out2.Rows(); r++ {
		total += out2.Col("cnt").GetI64(r)
	}
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
}

func TestHashAggFirst(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(9)
	agg := NewHashAgg(s, NewScan(s, tab), "f", []int{2},
		Agg(AggFirst, 0, "first_id"),
		Agg(AggMin, 0, "min_id"))
	out, err := Materialize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("groups = %d", out.Rows())
	}
	for r := 0; r < 3; r++ {
		// First id seen per name group is also the minimum (data ordered).
		if out.Col("first_id").GetI64(r) != out.Col("min_id").GetI64(r) {
			t.Error("first != min on ordered input")
		}
	}
}

func TestHashJoinInner(t *testing.T) {
	s := testSession(t)
	build := numbersTable(10)
	probeIDs := []int32{0, 5, 9, 42, 5}
	probe := NewTable("probe",
		vector.Schema{{Name: "k", Type: vector.I32}},
		[]*vector.Vector{vector.FromI32(probeIDs)})
	j := NewJoin(s, NewScan(s, build), NewScan(s, probe), "j", "id", "k",
		[]string{"val", "name"})
	out, err := Materialize(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 4 { // 42 misses
		t.Fatalf("rows = %d, want 4", out.Rows())
	}
	for r := 0; r < out.Rows(); r++ {
		k := out.Col("k").GetI64(r)
		if out.Col("val").GetI64(r) != k*10 {
			t.Errorf("row %d: payload mismatch", r)
		}
	}
}

func TestHashJoinSemiAntiAndBloom(t *testing.T) {
	s := testSession(t)
	build := numbersTable(8)
	probeIDs := make([]int32, 100)
	for i := range probeIDs {
		probeIDs[i] = int32(i)
	}
	probe := NewTable("probe",
		vector.Schema{{Name: "k", Type: vector.I32}},
		[]*vector.Vector{vector.FromI32(probeIDs)})

	semi := NewJoin(s, NewScan(s, build), NewScan(s, probe), "semi", "id", "k",
		nil, WithKind(SemiJoin), WithBloom(8))
	out, err := Materialize(semi)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 8 {
		t.Fatalf("semi rows = %d, want 8", out.Rows())
	}

	s2 := testSession(t)
	anti := NewJoin(s2, NewScan(s2, build), NewScan(s2, probe), "anti", "id", "k",
		nil, WithKind(AntiJoin))
	out2, err := Materialize(anti)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 92 {
		t.Fatalf("anti rows = %d, want 92", out2.Rows())
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	s := testSession(t)
	left := NewTable("l",
		vector.Schema{{Name: "lk", Type: vector.I64}, {Name: "lv", Type: vector.Str}},
		[]*vector.Vector{
			vector.FromI64([]int64{1, 2, 2, 4}),
			vector.FromStr([]string{"a", "b", "c", "d"}),
		})
	right := NewTable("r",
		vector.Schema{{Name: "rk", Type: vector.I64}, {Name: "rv", Type: vector.I64}},
		[]*vector.Vector{
			vector.FromI64([]int64{2, 2, 3, 4, 4}),
			vector.FromI64([]int64{20, 21, 30, 40, 41}),
		})
	mj := NewMergeJoin(s, NewScan(s, left), NewScan(s, right), "mj", "lk", "rk",
		[]string{"lk", "lv"}, []string{"rv"})
	out, err := Materialize(mj)
	if err != nil {
		t.Fatal(err)
	}
	// key 2: 2 left x 2 right = 4 pairs; key 4: 1x2 = 2 pairs.
	if out.Rows() != 6 {
		t.Fatalf("rows = %d, want 6", out.Rows())
	}
	var sum int64
	for r := 0; r < out.Rows(); r++ {
		sum += out.Col("rv").GetI64(r)
	}
	if sum != 20+21+20+21+40+41 {
		t.Errorf("rv sum = %d", sum)
	}
}

// TestMergeJoinCapacityBoundary forces a duplicate group to straddle the
// output vector boundary.
func TestMergeJoinCapacityBoundary(t *testing.T) {
	s := testSession(t) // vector size 16
	n := 7
	lk := make([]int64, n)
	rk := make([]int64, n)
	for i := range lk {
		lk[i] = 1
		rk[i] = 1
	}
	left := NewTable("l", vector.Schema{{Name: "lk", Type: vector.I64}},
		[]*vector.Vector{vector.FromI64(lk)})
	right := NewTable("r", vector.Schema{{Name: "rk", Type: vector.I64}},
		[]*vector.Vector{vector.FromI64(rk)})
	mj := NewMergeJoin(s, NewScan(s, left), NewScan(s, right), "mj", "lk", "rk",
		[]string{"lk"}, nil)
	out, err := Materialize(mj)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != n*n { // 49 pairs through 16-wide output vectors
		t.Fatalf("rows = %d, want %d", out.Rows(), n*n)
	}
}

func TestSortAndTopNAndLimit(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(25)
	sorted := NewSort(s, NewScan(s, tab), Desc(0))
	out, err := Materialize(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if out.Col("id").GetI64(0) != 24 || out.Col("id").GetI64(24) != 0 {
		t.Error("descending sort wrong")
	}

	s2 := testSession(t)
	top := NewTopN(s2, NewScan(s2, tab), 5, Asc(2), Desc(0))
	out2, err := Materialize(top)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Rows() != 5 {
		t.Fatalf("topn rows = %d", out2.Rows())
	}
	if out2.Col("name").GetStr(0) != "a" || out2.Col("id").GetI64(0) != 24 {
		t.Error("topn ordering wrong")
	}

	s3 := testSession(t)
	lim := NewLimit(s3, NewScan(s3, tab), 7)
	out3, err := Materialize(lim)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Rows() != 7 {
		t.Fatalf("limit rows = %d", out3.Rows())
	}
}

func TestTableStringRendering(t *testing.T) {
	tab := numbersTable(3)
	out := TableString(tab, 2)
	if !contains(out, "id") || !contains(out, "3 rows total") {
		t.Errorf("render: %q", out)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
