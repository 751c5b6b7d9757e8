package expr

import (
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

func testEval(t testing.TB, sch vector.Schema) (*core.Session, *Evaluator) {
	t.Helper()
	d := primitive.NewDictionary(primitive.Defaults())
	s := core.NewSession(d, hw.Machine1(), core.WithVectorSize(8), core.WithSeed(2))
	return s, NewEvaluator(s, sch, "test")
}

func i64Batch(vals ...int64) *vector.Batch { return batch(vector.FromI64(vals)) }

// batch is a dense batch over equal-length columns.
func batch(cols ...*vector.Vector) *vector.Batch {
	return &vector.Batch{N: cols[0].Len(), Cols: cols}
}

func TestColAndConst(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}}
	_, ev := testEval(t, sch)
	b := i64Batch(4, 5, 6)
	col := (&Col{Idx: 0}).Eval(ev, b)
	if col.I64()[1] != 5 {
		t.Error("col ref wrong")
	}
	if (&ConstI64{V: 9}).Eval(ev, b).I64()[0] != 9 {
		t.Error("const i64 wrong")
	}
	if (&ConstI32{V: 7}).Eval(ev, b).I32()[0] != 7 {
		t.Error("const i32 wrong")
	}
	if (&ConstF64{V: 1.5}).Eval(ev, b).F64()[0] != 1.5 {
		t.Error("const f64 wrong")
	}
}

func TestBinOpShapes(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}, {Name: "y", Type: vector.I64}}
	_, ev := testEval(t, sch)
	b := batch(vector.FromI64([]int64{10, 20, 30}), vector.FromI64([]int64{1, 2, 3}))

	colcol := Mul(&Col{Idx: 0}, &Col{Idx: 1}).Eval(ev, b)
	if colcol.I64()[2] != 90 {
		t.Errorf("col*col = %v", colcol.I64()[:3])
	}
	colval := Add(&Col{Idx: 0}, &ConstI64{V: 5}).Eval(ev, b)
	if colval.I64()[0] != 15 {
		t.Errorf("col+val = %v", colval.I64()[:3])
	}
	valcol := Sub(&ConstI64{V: 100}, &Col{Idx: 1}).Eval(ev, b)
	if valcol.I64()[2] != 97 {
		t.Errorf("val-col = %v", valcol.I64()[:3])
	}
	div := Div(&Col{Idx: 0}, &Col{Idx: 1}).Eval(ev, b)
	if div.I64()[1] != 10 {
		t.Errorf("col/col = %v", div.I64()[:3])
	}
}

func TestNestedExpressionSharesInstances(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}}
	s, ev := testEval(t, sch)
	// (x*2) + (x*2): the shared node must map to ONE primitive instance.
	shared := Mul(&Col{Idx: 0}, &ConstI64{V: 2})
	sum := Add(shared, shared)
	b := i64Batch(3)
	if got := sum.Eval(ev, b).I64()[0]; got != 12 {
		t.Errorf("result = %d, want 12", got)
	}
	mulInsts := 0
	for _, inst := range s.Instances() {
		if inst.Prim.Sig == "map_*_slng_col_slng_val" {
			mulInsts++
		}
	}
	if mulInsts != 1 {
		t.Errorf("mul instances = %d, want 1 (node sharing)", mulInsts)
	}
}

func TestEvalUnderSelection(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}}
	_, ev := testEval(t, sch)
	b := i64Batch(1, 2, 3, 4)
	b.Sel = []int32{1, 3}
	res := Mul(&Col{Idx: 0}, &ConstI64{V: 10}).Eval(ev, b)
	if res.I64()[1] != 20 || res.I64()[3] != 40 {
		t.Error("live positions wrong")
	}
}

func TestWiden(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I32}}
	_, ev := testEval(t, sch)
	b := batch(vector.FromI32([]int32{-7, 8}))
	res := ToI64(&Col{Idx: 0}).Eval(ev, b)
	if res.Type() != vector.I64 || res.I64()[0] != -7 {
		t.Error("widen wrong")
	}
	// Widening an I64 column is a no-op returning the same vector.
	sch2 := vector.Schema{{Name: "x", Type: vector.I64}}
	_, ev2 := testEval(t, sch2)
	b2 := i64Batch(5)
	in := (&Col{Idx: 0}).Eval(ev2, b2)
	if ToI64(&Col{Idx: 0}).Eval(ev2, b2) != in {
		t.Error("widen of I64 should be identity")
	}
}

func TestCastF64(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}}
	_, ev := testEval(t, sch)
	res := CastF64(&Col{Idx: 0}).Eval(ev, i64Batch(3))
	if res.Type() != vector.F64 || res.F64()[0] != 3 {
		t.Error("cast wrong")
	}
}

func TestSubstrAndCases(t *testing.T) {
	sch := vector.Schema{{Name: "s", Type: vector.Str}}
	_, ev := testEval(t, sch)
	b := batch(vector.FromStr([]string{"25-xyz", "9", ""}))
	sub := (&Substr{Child: &Col{Idx: 0}, From: 0, Len: 2}).Eval(ev, b)
	if sub.Str()[0] != "25" || sub.Str()[1] != "9" || sub.Str()[2] != "" {
		t.Errorf("substr = %v", sub.Str()[:3])
	}

	ci := (&CaseInStr{Col: &Col{Idx: 0}, Values: []string{"9", "25-xyz"}, Then: 1, Else: 0}).Eval(ev, b)
	if ci.I64()[0] != 1 || ci.I64()[2] != 0 {
		t.Error("case-in wrong")
	}
	ce := (&CaseEqStr{Col: &Col{Idx: 0}, Value: "9", Then: 7, Else: -1}).Eval(ev, b)
	if ce.I64()[1] != 7 || ce.I64()[0] != -1 {
		t.Error("case-eq wrong")
	}
	cl := (&CaseLikeStr{Col: &Col{Idx: 0}, Match: func(s string) bool { return len(s) > 1 }, Then: 1, Else: 2}).Eval(ev, b)
	if cl.I64()[0] != 1 || cl.I64()[1] != 2 {
		t.Error("case-like wrong")
	}
}

func TestMapI64(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I32}}
	_, ev := testEval(t, sch)
	b := batch(vector.FromI32([]int32{700, 1100}))
	res := (&MapI64{Child: ToI64(&Col{Idx: 0}), Fn: func(v int64) int64 { return v / 365 }}).Eval(ev, b)
	if res.I64()[0] != 1 || res.I64()[1] != 3 {
		t.Errorf("mapfn = %v", res.I64()[:2])
	}
}

func TestTypeResolution(t *testing.T) {
	sch := vector.Schema{
		{Name: "a", Type: vector.I32},
		{Name: "b", Type: vector.F64},
		{Name: "s", Type: vector.Str},
	}
	if (&Col{Idx: 1}).Type(sch) != vector.F64 {
		t.Error("col type wrong")
	}
	if Add(&Col{Idx: 1}, &ConstF64{V: 1}).Type(sch) != vector.F64 {
		t.Error("binop type wrong")
	}
	if ToI64(&Col{Idx: 0}).Type(sch) != vector.I64 {
		t.Error("widen type wrong")
	}
	if (&Substr{Child: &Col{Idx: 2}}).Type(sch) != vector.Str {
		t.Error("substr type wrong")
	}
	if (&CaseInStr{}).Type(sch) != vector.I64 {
		t.Error("case type wrong")
	}
	if (&MapI64{}).Type(sch) != vector.I64 {
		t.Error("mapi64 type wrong")
	}
	if (&ToF64{}).Type(sch) != vector.F64 {
		t.Error("tof64 type wrong")
	}
	if (&CaseEqStr{}).Type(sch) != vector.I64 || (&CaseLikeStr{}).Type(sch) != vector.I64 {
		t.Error("case types wrong")
	}
	if (&ConstI64{}).Type(sch) != vector.I64 || (&ConstI32{}).Type(sch) != vector.I32 || (&ConstF64{}).Type(sch) != vector.F64 {
		t.Error("const types wrong")
	}
}

// TestEvalAllocFree: once every node has its state, evaluating a tree of
// every node kind over a batch allocates nothing — result vectors, call
// records, literal vectors and the CASE membership set are all reused.
func TestEvalAllocFree(t *testing.T) {
	sch := vector.Schema{{Name: "x", Type: vector.I64}, {Name: "d", Type: vector.I32}, {Name: "s", Type: vector.Str}}
	_, ev := testEval(t, sch)
	b := batch(
		vector.FromI64([]int64{4, 5, 6, 7}),
		vector.FromI32([]int32{1, 2, 3, 4}),
		vector.FromStr([]string{"ab", "cd", "ab", "ef"}))
	b.Sel = []int32{0, 2, 3}
	x, d, s := &Col{Idx: 0}, &Col{Idx: 1}, &Col{Idx: 2}
	nodes := []Node{
		Div(Mul(Add(x, &ConstI64{V: 3}), Sub(&ConstI64{V: 9}, x)), x),
		Mul(d, &ConstI32{V: 2}),
		Mul(CastF64(x), &ConstF64{V: 0.5}),
		&MapI64{Child: ToI64(d), Fn: func(v int64) int64 { return v + 1 }},
		&Substr{Child: s, From: 0, Len: 1},
		&CaseInStr{Col: s, Values: []string{"ab", "zz"}, Then: 1},
		&CaseEqStr{Col: s, Value: "cd", Then: 1},
		&CaseLikeStr{Col: s, Pattern: "a%", Then: 1},
	}
	eval := func() {
		for _, n := range nodes {
			n.Eval(ev, b)
		}
	}
	eval()
	if got := testing.AllocsPerRun(200, eval); got != 0 {
		t.Errorf("%v allocations per evaluation of a warmed tree, want 0", got)
	}
	if got := nodes[0].Eval(ev, b).I64(); got[0] != 7*5/4 || got[2] != 9*3/6 || got[3] != 10*2/7 {
		t.Errorf("live results = %v", got)
	}
}
