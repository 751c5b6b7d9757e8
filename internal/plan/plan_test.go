package plan

import (
	"strings"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// testTable builds an n-row table with columns k (0..n-1, I32), v
// (k*3, I64) and tag (cycling strings).
func testTable(n int) *engine.Table {
	k := make([]int32, n)
	v := make([]int64, n)
	tag := make([]string, n)
	names := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		k[i] = int32(i)
		v[i] = int64(i) * 3
		tag[i] = names[i%3]
	}
	return engine.NewTable("t", vector.Schema{
		{Name: "k", Type: vector.I32},
		{Name: "v", Type: vector.I64},
		{Name: "tag", Type: vector.Str},
	}, []*vector.Vector{vector.FromI32(k), vector.FromI64(v), vector.FromStr(tag)})
}

func testSession(p int) *core.Session {
	return core.NewSession(primitive.NewDictionary(primitive.Everything()), hw.Machine1(),
		core.WithVectorSize(64), core.WithSeed(3), core.WithParallelism(p))
}

func TestLabelsDerivedFromStructure(t *testing.T) {
	tab := testTable(10)
	b := New("T")
	s1 := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 5))
	s2 := b.Scan(tab, "k").Select(CmpVal(0, ">=", 5))
	p1 := s1.Project(engine.Keep("k", 0))
	if got := s1.Label(); got != "T/sel0" {
		t.Errorf("first select label = %q, want T/sel0", got)
	}
	if got := s2.Label(); got != "T/sel1" {
		t.Errorf("second select label = %q, want T/sel1", got)
	}
	if got := p1.Label(); got != "T/proj0" {
		t.Errorf("first project label = %q, want T/proj0", got)
	}
	// An identically built plan derives identical labels.
	b2 := New("T")
	r1 := b2.Scan(tab, "k", "v").Select(CmpVal(0, "<", 5))
	if r1.Label() != s1.Label() {
		t.Errorf("labels not reproducible: %q vs %q", r1.Label(), s1.Label())
	}
}

func TestSchemaPropagation(t *testing.T) {
	tab := testTable(10)
	b := New("T")
	sel := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 5))
	proj := sel.Project(
		engine.Keep("k", 0),
		engine.ProjExpr{Name: "v2", Expr: expr.Mul(sel.Col("v"), &expr.ConstI64{V: 2})})
	agg := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "s"))
	if got := proj.Schema(); len(got) != 2 || got[1].Name != "v2" || got[1].Type != vector.I64 {
		t.Errorf("project schema = %v", got)
	}
	// Group key k widens from I32 to I64, exactly like engine.HashAgg.
	if got := agg.Schema(); got[0].Type != vector.I64 || got[1].Name != "s" {
		t.Errorf("agg schema = %v", got)
	}
	if agg.Idx("s") != 1 {
		t.Errorf("Idx(s) = %d", agg.Idx("s"))
	}
}

func TestRunPipeline(t *testing.T) {
	tab := testTable(100)
	b := New("T")
	sel := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 50))
	proj := sel.Project(
		engine.ProjExpr{Name: "v2", Expr: expr.Mul(sel.Col("v"), &expr.ConstI64{V: 2})})
	b.Root(proj.Agg(nil, engine.Agg(engine.AggSum, 0, "total")))
	out, err := b.Bind(testSession(1)).Run(b.MainRoot())
	if err != nil {
		t.Fatal(err)
	}
	// sum(2 * 3k) for k in [0,50) = 6 * 49*50/2
	if got, want := out.Col("total").GetI64(0), int64(6*49*50/2); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
}

// TestSharedSubtreeMaterializedOnce: a node with two consumers must
// execute once; both consumers read the same materialized table.
func TestSharedSubtreeMaterializedOnce(t *testing.T) {
	tab := testTable(100)
	b := New("T")
	sel := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 40))
	aggA := sel.Agg(nil, engine.Agg(engine.AggSum, 1, "sv"))
	aggB := sel.Agg(nil, engine.Agg(engine.AggCount, -1, "n"))
	b.NamedRoot("a", aggA)
	b.NamedRoot("b", aggB)
	if refs := b.refCounts(); refs[sel.id] != 2 {
		t.Fatalf("shared select refcount = %d, want 2", refs[sel.id])
	}
	s := testSession(1)
	ex := b.Bind(s)
	ta, err := ex.Run(aggA)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ex.Run(aggB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ta.Col("sv").GetI64(0), int64(3*39*40/2); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if got := tb.Col("n").GetI64(0); got != 40 {
		t.Errorf("count = %d, want 40", got)
	}
	// The shared select's primitive instance ran its tuples exactly once:
	// 100 input rows, not 200.
	for _, inst := range s.Instances() {
		if strings.HasPrefix(inst.Label, "T/sel0/") {
			var tuples int64
			for i := range inst.PerArm {
				tuples += inst.PerArm[i].Tuples
			}
			if tuples != 100 {
				t.Errorf("shared select processed %d tuples, want 100 (one execution)", tuples)
			}
		}
	}
}

func TestScalarPredicates(t *testing.T) {
	tab := testTable(100)
	b := New("T")
	base := b.Scan(tab, "k", "v").Select(CmpVal(0, ">=", 0))
	maxAgg := base.Agg(nil, engine.Agg(engine.AggMax, 1, "mx"))
	best := base.Select(CmpScalar(1, "==", ScalarOf(maxAgg, "mx")))
	b.Root(best)
	out, err := b.Bind(testSession(1)).Run(best)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 || out.Col("v").GetI64(0) != 297 {
		t.Errorf("scalar == max returned %d rows (v=%v)", out.Rows(), out.Cols)
	}
}

func TestScalarDivBy(t *testing.T) {
	tab := testTable(100)
	b := New("T")
	base := b.Scan(tab, "k", "v").Select(CmpVal(0, ">=", 0))
	sumAgg := base.Agg(nil, engine.Agg(engine.AggSum, 1, "s"))               // 14850
	over := base.Select(CmpScalar(1, ">", ScalarOf(sumAgg, "s").DivBy(100))) // v > 148
	b.Root(over.Agg(nil, engine.Agg(engine.AggCount, -1, "n")))
	out, err := b.Bind(testSession(1)).Run(b.MainRoot())
	if err != nil {
		t.Fatal(err)
	}
	// v = 3k > 148 <=> k >= 50, so 50 rows.
	if got := out.Col("n").GetI64(0); got != 50 {
		t.Errorf("count = %d, want 50", got)
	}
}

func TestScalarOverEmptyResultErrors(t *testing.T) {
	tab := testTable(10)
	b := New("T")
	none := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 0))
	filtered := b.Scan(tab, "k", "v").Select(CmpScalar(1, ">", ScalarOf(none, "v")))
	b.Root(filtered)
	if _, err := b.Bind(testSession(1)).Run(filtered); err == nil {
		t.Fatal("scalar over empty result did not error")
	}
}

// TestParallelLoweringMatchesSerial: the planner's derived partitioning
// must produce bit-identical tables at any P.
func TestParallelLoweringMatchesSerial(t *testing.T) {
	tab := testTable(4096)
	build := func() *Builder {
		b := New("T")
		sel := b.Scan(tab, "k", "v", "tag").Select(CmpVal(0, "<", 3000))
		proj := sel.Project(
			engine.Keep("tag", 2),
			engine.ProjExpr{Name: "v2", Expr: expr.Mul(sel.Col("v"), &expr.ConstI64{V: 2})})
		agg := proj.Agg([]int{0}, engine.Agg(engine.AggSum, 1, "s"))
		b.Root(agg.Sort(engine.Asc(0)))
		return b
	}
	var want string
	for _, p := range []int{1, 2, 4} {
		s := testSession(p)
		b := build()
		out, err := b.Bind(s).Run(b.MainRoot())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		got := engine.TableString(out, 0)
		if p == 1 {
			want = got
			if len(s.Fragments()) != 0 {
				t.Fatalf("serial run spawned fragments")
			}
			continue
		}
		if got != want {
			t.Errorf("P=%d result differs from serial", p)
		}
		if len(s.Fragments()) == 0 {
			t.Errorf("P=%d: derived chain did not fan out", p)
		}
	}
}

// TestChainDetection: partitionability is a property of plan shape.
func TestChainDetection(t *testing.T) {
	tab := testTable(4096)
	b := New("T")
	sel := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 9))
	agg := sel.Agg(nil, engine.Agg(engine.AggCount, -1, "n"))
	overAgg := agg.Select(CmpVal(0, ">", 0)) // select over a blocking agg
	b.Root(overAgg)
	refs := b.refCounts()
	if c := chainOf(sel, refs, nil); c == nil || c.scan == nil || len(c.stack) != 1 {
		t.Errorf("scan→select chain not detected: %+v", c)
	}
	if c := chainOf(overAgg, refs, nil); c != nil {
		t.Errorf("select over aggregate wrongly detected as partitionable chain")
	}
	if c := chainOf(agg, refs, nil); c != nil {
		t.Errorf("aggregate wrongly detected as chain top")
	}
}

func TestJoinsSortsLimits(t *testing.T) {
	left := engine.NewTable("dim", vector.Schema{
		{Name: "id", Type: vector.I32},
		{Name: "name", Type: vector.Str},
	}, []*vector.Vector{
		vector.FromI32([]int32{0, 1, 2}),
		vector.FromStr([]string{"zero", "one", "two"}),
	})
	tab := testTable(30)
	b := New("T")
	mod := b.Scan(tab, "k", "v").Project(
		engine.ProjExpr{Name: "m", Expr: &expr.MapI64{Child: expr.ToI64(&expr.Col{Idx: 0}), Fn: func(v int64) int64 { return v % 3 }}},
		engine.Keep("v", 1))
	j := b.HashJoin(b.Scan(left), mod, "id", "m", []string{"name"})
	top := j.TopN(5, engine.Desc(j.Idx("v")))
	b.Root(top)
	out, err := b.Bind(testSession(1)).Run(top)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5 {
		t.Fatalf("topn rows = %d", out.Rows())
	}
	if got := out.Col("v").GetI64(0); got != 87 {
		t.Errorf("top v = %d, want 87", got)
	}
	if got := out.Col("name").GetStr(0); got != "two" {
		t.Errorf("top name = %q, want two (29 %% 3 = 2)", got)
	}
}

func TestMergeJoinAndSemiAnti(t *testing.T) {
	l := engine.NewTable("l", vector.Schema{
		{Name: "a", Type: vector.I32}, {Name: "x", Type: vector.I64},
	}, []*vector.Vector{vector.FromI32([]int32{1, 2, 3, 5}), vector.FromI64([]int64{10, 20, 30, 50})})
	r := engine.NewTable("r", vector.Schema{
		{Name: "b", Type: vector.I32}, {Name: "y", Type: vector.I64},
	}, []*vector.Vector{vector.FromI32([]int32{2, 3, 4, 5}), vector.FromI64([]int64{200, 300, 400, 500})})
	b := New("T")
	mj := b.MergeJoin(b.Scan(l), b.Scan(r), "a", "b", []string{"a", "x"}, []string{"y"})
	b.Root(mj)
	semi := b.SemiJoin(b.Scan(l), b.Scan(r), "a", "b")
	b.NamedRoot("semi", semi)
	anti := b.AntiJoin(b.Scan(l), b.Scan(r), "a", "b")
	b.NamedRoot("anti", anti)
	ex := b.Bind(testSession(1))
	mt, err := ex.Run(mj)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Rows() != 3 || mt.Col("y").GetI64(0) != 200 {
		t.Errorf("merge join rows = %d", mt.Rows())
	}
	st, err := ex.Run(semi)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows() != 3 {
		t.Errorf("semi rows = %d, want 3", st.Rows())
	}
	at, err := ex.Run(anti)
	if err != nil {
		t.Fatal(err)
	}
	if at.Rows() != 1 || at.Col("b").GetI64(0) != 4 {
		t.Errorf("anti rows = %d", at.Rows())
	}
}

func TestExplainRendersBothLevels(t *testing.T) {
	tab := testTable(4096)
	b := New("T")
	sel := b.Scan(tab, "k", "v").Select(CmpVal(0, "<", 3000))
	b.Root(sel.Agg(nil, engine.Agg(engine.AggSum, 1, "s")))
	out := b.Explain(4)
	for _, want := range []string{
		"plan T",
		"logical (out):",
		"physical (out, P=4):",
		"Select [T/sel0] (k < 3000)",
		"Exchange [order-preserving merge of 4 morsel fragments]",
		"RangeScan[morsel] t (k, v)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(b.Explain(1), "Exchange") {
		t.Errorf("serial explain shows a fan-out")
	}
}

func TestCrossBuilderNodePanics(t *testing.T) {
	tab := testTable(4)
	b1 := New("A")
	b2 := New("B")
	n1 := b1.Scan(tab, "k")
	defer func() {
		if recover() == nil {
			t.Error("mixing builders did not panic")
		}
	}()
	b2.SemiJoin(n1, b2.Scan(tab, "k"), "k", "k")
}

// TestExplainSharedScalarSource: a scalar source that is also a regular
// plan child must render its subtree body once — not collapse to "ref"
// lines everywhere (the scalar renderer must not pre-mark it as seen).
func TestExplainSharedScalarSource(t *testing.T) {
	tab := testTable(100)
	b := New("T")
	base := b.Scan(tab, "k", "v").Select(CmpVal(0, ">=", 0))
	agg := base.Agg(nil, engine.Agg(engine.AggMax, 1, "mx"))
	filt := base.Select(CmpScalar(1, "<", ScalarOf(agg, "mx")))
	b.Root(b.HashJoin(agg, filt, "mx", "v", nil))
	out := b.Explain(1)
	if !strings.Contains(out, "HashAgg [T/agg0]") {
		t.Errorf("shared scalar source body never rendered in explain:\n%s", out)
	}
}
