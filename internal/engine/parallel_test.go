package engine

import (
	"fmt"
	"testing"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

func parallelSession(t testing.TB, p int) *core.Session {
	t.Helper()
	return core.NewSession(primitive.NewDictionary(primitive.Everything()),
		hw.Machine1(), core.WithVectorSize(16), core.WithSeed(5), core.WithParallelism(p))
}

// selProjPipeline is the canonical partitionable prefix: range scan, a
// selection keeping val < cut, and a pass-through projection.
func selProjPipeline(tab *Table, cut int) FragmentBuilder {
	return func(fs *core.Session, m Morsel) (Operator, error) {
		scan := NewRangeScan(fs, tab, m.Lo, m.Hi, "id", "val")
		return NewSelect(fs, scan, "t/sel", CmpVal(1, "<", cut)), nil
	}
}

// TestRangeScanBounds: a range scan streams exactly [lo, hi), clamped.
func TestRangeScanBounds(t *testing.T) {
	s := testSession(t)
	tab := numbersTable(100)
	for _, tc := range []struct{ lo, hi, want int }{
		{0, 100, 100}, {10, 30, 20}, {90, 300, 10}, {50, 50, 0}, {-5, 7, 7}, {60, 20, 0},
	} {
		got, err := Materialize(NewRangeScan(s, tab, tc.lo, tc.hi, "id"))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != tc.want {
			t.Errorf("range [%d,%d): %d rows, want %d", tc.lo, tc.hi, got.Rows(), tc.want)
		}
		if tc.want > 0 {
			lo := tc.lo
			if lo < 0 {
				lo = 0
			}
			if first := got.Col("id").GetI64(0); first != int64(lo) {
				t.Errorf("range [%d,%d): first id = %d, want %d", tc.lo, tc.hi, first, lo)
			}
		}
	}
}

// TestExchangeMatchesSerial: the merged stream of a partitioned pipeline
// carries exactly the serial pipeline's rows in the serial order.
func TestExchangeMatchesSerial(t *testing.T) {
	tab := numbersTable(4000)
	serialSess := parallelSession(t, 1)
	serialOp, err := ParallelPipeline(serialSess, tab.Rows(), selProjPipeline(tab, 31000))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := serialOp.(*Exchange); ok {
		t.Fatal("parallelism 1 must not build an exchange")
	}
	want, err := Materialize(serialOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialSess.Fragments()) != 0 {
		t.Fatalf("serial pipeline spawned %d fragments", len(serialSess.Fragments()))
	}

	for _, p := range []int{2, 4, 7} {
		s := parallelSession(t, p)
		op, err := ParallelPipeline(s, tab.Rows(), selProjPipeline(tab, 31000))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.(*Exchange); !ok {
			t.Fatalf("P=%d: expected an exchange, got %T", p, op)
		}
		got, err := Materialize(op)
		if err != nil {
			t.Fatal(err)
		}
		if TableString(got, 0) != TableString(want, 0) {
			t.Errorf("P=%d: merged stream differs from serial", p)
		}
		if len(s.Fragments()) != p {
			t.Errorf("P=%d: %d fragment sessions", p, len(s.Fragments()))
		}
		// Fragment work folded into the coordinator's accounting.
		if s.Ctx.PrimCycles <= 0 {
			t.Errorf("P=%d: no primitive cycles folded into coordinator", p)
		}
		// Each fragment learned on partition-tagged labels that collapse to
		// the serial instance key.
		for _, fs := range s.Fragments() {
			for _, inst := range fs.Instances() {
				if core.BaseLabel(inst.Label) == inst.Label {
					t.Errorf("fragment instance label %q carries no partition tag", inst.Label)
				}
				if want := "t/sel"; core.BaseLabel(inst.Label)[:len(want)] != want {
					t.Errorf("fragment label %q does not collapse onto the plan label", inst.Label)
				}
			}
		}
	}
}

// TestParallelPipelineSmallScanStaysSerial: scans below two minimum-size
// morsels must not fan out, whatever the configured parallelism.
func TestParallelPipelineSmallScanStaysSerial(t *testing.T) {
	tab := numbersTable(600) // < 2*minMorselRows
	s := parallelSession(t, 8)
	op, err := ParallelPipeline(s, tab.Rows(), selProjPipeline(tab, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*Exchange); ok {
		t.Fatal("tiny scan built an exchange")
	}
	if len(s.Fragments()) != 0 {
		t.Fatalf("tiny scan spawned %d fragments", len(s.Fragments()))
	}
}

// TestExchangeFragmentError: a builder error surfaces from construction; a
// fragment panic during execution surfaces as a stream error from the
// merge (Open starts the producers, Next delivers their failure), not a
// crash — and the exchange shuts its other producers down cleanly.
func TestExchangeFragmentError(t *testing.T) {
	tab := numbersTable(4000)
	s := parallelSession(t, 2)
	if _, err := ParallelPipeline(s, tab.Rows(), func(fs *core.Session, m Morsel) (Operator, error) {
		return nil, fmt.Errorf("no fragment for morsel %d", m.Part)
	}); err == nil {
		t.Error("builder error did not surface")
	}

	s = parallelSession(t, 2)
	op, err := ParallelPipeline(s, tab.Rows(), func(fs *core.Session, m Morsel) (Operator, error) {
		return &panicOp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(op); err == nil {
		t.Error("fragment panic did not surface from the merged stream")
	}
}

// TestExchangeEarlyClose: closing the exchange before the stream is
// exhausted (the shape a Limit above it produces) must release the
// blocked producer goroutines, not deadlock, and still fold the
// fragments' cycle accounting into the coordinator session.
func TestExchangeEarlyClose(t *testing.T) {
	s := parallelSession(t, 4)
	tab := numbersTable(40000) // large enough that producers outpace one Next
	op, err := ParallelPipeline(s, tab.Rows(), func(fs *core.Session, m Morsel) (Operator, error) {
		return NewRangeScan(fs, tab, m.Lo, m.Hi, "id", "val"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := op.(*Exchange)
	if !ok {
		t.Fatalf("expected an Exchange at P=4, got %T", op)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := ex.Next(); err != nil || b == nil {
		t.Fatalf("first Next = (%v, %v)", b, err)
	}
	done := make(chan struct{})
	go func() { ex.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("early Close deadlocked against blocked producers")
	}
	if s.Ctx.OperatorCycles <= 0 {
		t.Error("early Close folded no fragment cycle accounting")
	}
	if _, err := ex.Next(); err == nil {
		t.Error("Next after early Close did not error")
	}
}

// TestExchangeBackpressureOverlap: the consumer must be able to drain
// partition 0 while later partitions are still producing, and the whole
// merged stream must equal the serial order even when producers block on
// their bounded channels. Run with -race this is the handoff's data-race
// coverage.
func TestExchangeBackpressureOverlap(t *testing.T) {
	tab := numbersTable(30000)
	serial := parallelSession(t, 1)
	want, err := Materialize(mustPipeline(t, serial, tab, selProjPipeline(tab, 200000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		s := parallelSession(t, p)
		op := mustPipeline(t, s, tab, selProjPipeline(tab, 200000))
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows += b.Live()
		}
		op.Close()
		if rows != want.Rows() {
			t.Errorf("P=%d: streamed %d rows, want %d", p, rows, want.Rows())
		}
	}
}

func mustPipeline(t *testing.T, s *core.Session, tab *Table, build FragmentBuilder) Operator {
	t.Helper()
	op, err := ParallelPipeline(s, tab.Rows(), build)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// panicOp panics on Next, simulating a primitive bug inside a fragment.
type panicOp struct{}

func (p *panicOp) Schema() vector.Schema        { return vector.Schema{{Name: "x", Type: vector.I64}} }
func (p *panicOp) Open() error                  { return nil }
func (p *panicOp) Next() (*vector.Batch, error) { panic("primitive bug") }
func (p *panicOp) Close()                       {}

// wideOp hands out batches wider than the consuming session's vector size —
// the shape a materialized table streamed by another session produces.
type wideOp struct {
	tab  *Table
	pos  int
	step int
}

func (w *wideOp) Schema() vector.Schema { return w.tab.Sch }
func (w *wideOp) Open() error           { w.pos = 0; return nil }
func (w *wideOp) Close()                {}
func (w *wideOp) Next() (*vector.Batch, error) {
	if w.pos >= w.tab.Rows() {
		return nil, nil
	}
	lo, hi := w.pos, w.pos+w.step
	if hi > w.tab.Rows() {
		hi = w.tab.Rows()
	}
	w.pos = hi
	cols := make([]*vector.Vector, len(w.tab.Cols))
	for i, c := range w.tab.Cols {
		cols[i] = c.Slice(lo, hi)
	}
	return &vector.Batch{N: hi - lo, Cols: cols}, nil
}

// TestSelectHandlesOverWideBatches is the regression test for the SelOut
// scratch guard: a child batch with N > VectorSize (here 8x) must filter
// correctly instead of writing past the scratch.
func TestSelectHandlesOverWideBatches(t *testing.T) {
	s := testSession(t) // vector size 16
	tab := numbersTable(400)
	sel := NewSelect(s, &wideOp{tab: tab, step: 128}, "wide/sel", CmpVal(1, "<", 1000))
	got, err := Materialize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 100 { // val = id*10 < 1000 -> ids 0..99
		t.Errorf("rows = %d, want 100", got.Rows())
	}
}

// TestHashJoinHandlesOverWideBatches: same guard on the probe side's
// key/row/selection scratch.
func TestHashJoinHandlesOverWideBatches(t *testing.T) {
	s := testSession(t) // vector size 16
	build := numbersTable(50)
	probe := numbersTable(400)
	j := NewJoin(s, NewScan(s, build, "id", "val"), &wideOp{tab: probe, step: 128},
		"wide/join", "id", "id", []string{"val"})
	got, err := Materialize(j)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 50 {
		t.Errorf("rows = %d, want 50", got.Rows())
	}
}

// TestHashAggHandlesOverWideBatches: same guard on the key/gid scratch.
func TestHashAggHandlesOverWideBatches(t *testing.T) {
	s := testSession(t) // vector size 16
	tab := numbersTable(400)
	agg := NewHashAgg(s, &wideOp{tab: tab, step: 128}, "wide/agg", []int{0},
		Agg(AggSum, 1, "sum_val"))
	got, err := Materialize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 400 {
		t.Errorf("groups = %d, want 400", got.Rows())
	}
}

// TestExchangeNextAfterClose: a Next after Close must error like a Next
// before Open, not dereference the released partition tables.
func TestExchangeNextAfterClose(t *testing.T) {
	s := parallelSession(t, 4)
	tab := numbersTable(4096)
	op, err := ParallelPipeline(s, tab.Rows(), func(fs *core.Session, m Morsel) (Operator, error) {
		return NewRangeScan(fs, tab, m.Lo, m.Hi), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := op.(*Exchange)
	if !ok {
		t.Fatalf("expected an Exchange at P=4, got %T", op)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := ex.Next(); err != nil || b == nil {
		t.Fatalf("first Next = (%v, %v)", b, err)
	}
	ex.Close()
	if _, err := ex.Next(); err == nil {
		t.Error("Next after Close did not error")
	}
}
