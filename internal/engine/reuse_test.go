package engine

import (
	"strconv"
	"testing"
	"testing/quick"

	"microadapt/internal/core"
	"microadapt/internal/expr"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// warmedNextAllocs opens op, pulls warm batches — enough for every
// instance's APH to reach its bucket budget and every operator to size its
// scratch — and returns the allocations per Next over the following runs.
func warmedNextAllocs(t *testing.T, op Operator, warm, runs int) float64 {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	next := func() {
		b, err := op.Next()
		if err != nil || b == nil {
			t.Fatalf("stream ended inside the measured window: batch %v, err %v", b, err)
		}
	}
	for i := 0; i < warm; i++ {
		next()
	}
	return testing.AllocsPerRun(runs, next)
}

// allocSession is a session at the service's vector size over the full
// flavor set, so the chooser explores while Next is being measured.
func allocSession() *core.Session {
	return core.NewSession(benchDictAll(), hw.Machine1(), core.WithVectorSize(64), core.WithSeed(4))
}

// TestSessionBuildAllocBudget: the fixed cost a query pays before its first
// batch is a handful of small objects — no cache simulator, no seeded
// generator state, no pre-sized histories.
func TestSessionBuildAllocBudget(t *testing.T) {
	d, m := benchDictAll(), hw.Machine1()
	got := testing.AllocsPerRun(100, func() {
		core.NewSession(d, m, core.WithVectorSize(128), core.WithSeed(3))
	})
	if got > 16 {
		t.Errorf("core.NewSession allocates %v objects, want <= 16", got)
	}
}

func TestNextAllocFreeScanSelectProject(t *testing.T) {
	s := allocSession()
	sel := NewSelect(s, NewScan(s, benchTable()), "b", CmpVal(0, "<", 500), CmpVal(1, ">", 100))
	proj := NewProject(s, sel, "p",
		Keep("a", 0),
		ProjExpr{Name: "x", Expr: expr.Div(expr.Mul(&expr.Col{Idx: 1}, &expr.ConstI64{V: 3}), &expr.Col{Idx: 1})},
		ProjExpr{Name: "c", Expr: &expr.ConstI64{V: 7}})
	if got := warmedNextAllocs(t, proj, 600, 300); got != 0 {
		t.Errorf("Scan->Select->Project: %v allocations per warmed Next, want 0", got)
	}
}

func TestNextAllocFreeEncodedScanPushdown(t *testing.T) {
	tab := encTestTable(1 << 16)
	EncodeTable(tab)
	s := allocSession()
	scan := NewEncodedScan(s, tab, "scan").Pushdown("sel", CmpVal(0, ">=", 900), CmpVal(1, "<", 40))
	if got := warmedNextAllocs(t, scan, 600, 300); got != 0 {
		t.Errorf("EncodedScan with pushdown: %v allocations per warmed Next, want 0", got)
	}
}

func TestNextAllocFreeJoinProbe(t *testing.T) {
	build := NewTable("b",
		vector.Schema{{Name: "k", Type: vector.I32}, {Name: "p", Type: vector.I64}},
		[]*vector.Vector{vector.FromI32(seq(700)), vector.FromI64(seq64(700))})
	s := allocSession()
	j := NewJoin(s, NewScan(s, build), NewScan(s, benchTable()), "j", "k", "a", []string{"p"}, WithBloom(8))
	if got := warmedNextAllocs(t, j, 600, 300); got != 0 {
		t.Errorf("Join probe: %v allocations per warmed Next, want 0", got)
	}
}

// TestRunCopiesEveryBatch: Materialize retains every tuple while the
// operators below reuse their batches, so each retained value must be a
// copy — with a predicate (selection applied) and without one (where the
// operator hands out its own batch unchanged).
func TestRunCopiesEveryBatch(t *testing.T) {
	tab := numbersTable(100)
	for _, preds := range [][]Pred{nil, {CmpVal(0, ">=", 10)}} {
		s := testSession(t)
		out, err := Materialize(NewSelect(s, NewScan(s, tab), "t", preds...))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if preds != nil {
			want = 10
		}
		for i := 0; i < out.Rows(); i++ {
			if got := out.Cols[0].GetI64(i); got != want {
				t.Fatalf("preds %v: id = %d, want %d (a retained batch was overwritten)", preds, got, want)
			}
			if out.Cols[2].GetStr(i) != tab.Cols[2].GetStr(int(want)) {
				t.Fatalf("preds %v: name of id %d overwritten", preds, want)
			}
			want++
		}
		if want != 100 {
			t.Fatalf("preds %v: saw ids up to %d, want 100", preds, want)
		}
	}
}

// fixedOp emits the same child-owned batch forever.
type fixedOp struct{ b vector.Batch }

func (f *fixedOp) Schema() vector.Schema        { return vector.Schema{{Name: "x", Type: vector.I64}} }
func (f *fixedOp) Open() error                  { return nil }
func (f *fixedOp) Next() (*vector.Batch, error) { return &f.b, nil }
func (f *fixedOp) Close()                       {}

// onceOp emits one batch, then end of stream.
type onceOp struct {
	sch  vector.Schema
	b    *vector.Batch
	done bool
}

func (o *onceOp) Schema() vector.Schema { return o.sch }
func (o *onceOp) Open() error           { o.done = false; return nil }
func (o *onceOp) Next() (*vector.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return o.b, nil
}
func (o *onceOp) Close() {}

// TestMaterializeCompactsSelection: Materialize keeps exactly the selected
// tuples of a batch, in order, in every column.
func TestMaterializeCompactsSelection(t *testing.T) {
	f := func(vals []int64, picks []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		sel := vector.Sel{} // empty but non-nil: an empty selection, not "all live"
		for _, p := range picks {
			sel = append(sel, int32(int(p)%len(vals)))
		}
		// Selection vectors are ascending by contract.
		for i := 1; i < len(sel); i++ {
			if sel[i] < sel[i-1] {
				sel[i] = sel[i-1]
			}
		}
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = strconv.FormatInt(v, 10)
		}
		op := &onceOp{
			sch: vector.Schema{{Name: "v", Type: vector.I64}, {Name: "s", Type: vector.Str}},
			b:   &vector.Batch{N: len(vals), Sel: sel, Cols: []*vector.Vector{vector.FromI64(vals), vector.FromStr(strs)}},
		}
		out, err := Materialize(op)
		if err != nil || out.Rows() != len(sel) {
			return false
		}
		for j, i := range sel {
			if out.Cols[0].I64()[j] != vals[i] || out.Cols[1].Str()[j] != strs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLimitLeavesChildBatchIntact: the batch that crosses the limit is
// truncated in a Limit-owned header, never in the child's.
func TestLimitLeavesChildBatchIntact(t *testing.T) {
	for _, sel := range []vector.Sel{nil, {0, 2, 4, 6}} {
		child := &fixedOp{b: vector.Batch{N: 8, Sel: sel, Cols: []*vector.Vector{vector.FromI64(seq64(8))}}}
		lim := NewLimit(testSession(t), child, 3)
		if err := lim.Open(); err != nil {
			t.Fatal(err)
		}
		b, err := lim.Next()
		if err != nil || b.Live() != 3 {
			t.Fatalf("limit batch live = %d, err %v, want 3", b.Live(), err)
		}
		if len(child.b.Sel) != len(sel) || (sel == nil) != (child.b.Sel == nil) {
			t.Errorf("Limit modified its child's batch: Sel %v, was %v", child.b.Sel, sel)
		}
		lim.Close()
	}
}
