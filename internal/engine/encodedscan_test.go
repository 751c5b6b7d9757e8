package engine

import (
	"strings"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/storage"
	"microadapt/internal/vector"
)

// encTestTable builds a small encodable table: a run-structured date
// column, a small-domain quantity, and an incompressible id.
func encTestTable(n int) *Table {
	dates := make([]int32, n)
	qty := make([]int32, n)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		dates[i] = int32(700 + i/19)
		qty[i] = int32(i*i%50) + 1
		// Multiplicative hashing wraps across the full int64 range, so no
		// encoding (dict/RLE/bit-pack) can beat flat on this column.
		ids[i] = int64(i+1) * -0x61c8864680b583eb
	}
	return NewTable("enc", vector.Schema{
		{Name: "date", Type: vector.I32},
		{Name: "qty", Type: vector.I32},
		{Name: "id", Type: vector.I64},
	}, []*vector.Vector{vector.FromI32(dates), vector.FromI32(qty), vector.FromI64(ids)})
}

func encSession() *core.Session {
	return core.NewSession(primitive.NewDictionary(primitive.Everything()), hw.Machine1(),
		core.WithVectorSize(64), core.WithSeed(3))
}

func tableEqual(t *testing.T, a, b *Table, ctxMsg string) {
	t.Helper()
	if got, want := TableString(a, 0), TableString(b, 0); got != want {
		t.Fatalf("%s: tables differ\n got: %s\nwant: %s", ctxMsg, got, want)
	}
}

// TestEncodedScanMatchesFlatScan: a full encoded scan must reproduce the
// flat scan bit-identically, including range restrictions and projections.
func TestEncodedScanMatchesFlatScan(t *testing.T) {
	tab := encTestTable(1000)
	EncodeTable(tab)
	if tab.Enc.ResidentBytes() >= tab.Enc.FlatBytes() {
		t.Fatalf("test table should compress: %d >= %d", tab.Enc.ResidentBytes(), tab.Enc.FlatBytes())
	}
	for _, tc := range []struct {
		lo, hi int
		cols   []string
	}{
		{0, 1000, nil},
		{0, 1000, []string{"qty", "date"}},
		{137, 803, nil},
		{999, 1000, []string{"id"}},
		{500, 500, nil},
	} {
		flat, err := Materialize(NewRangeScan(encSession(), tab, tc.lo, tc.hi, tc.cols...))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := Materialize(NewEncodedRangeScan(encSession(), tab, "t/scan0", tc.lo, tc.hi, tc.cols...))
		if err != nil {
			t.Fatal(err)
		}
		tableEqual(t, enc, flat, "range scan")
	}
}

// TestEncodedScanPushdownMatchesSelect: pushing conjuncts into the scan
// must yield exactly the rows of a Select above a flat scan, for every
// split point — including predicates that select nothing.
func TestEncodedScanPushdownMatchesSelect(t *testing.T) {
	tab := encTestTable(1000)
	EncodeTable(tab)
	preds := []Pred{CmpVal(0, ">=", 710), CmpVal(0, "<", 740), CmpVal(1, "<", 24)}
	flat, err := Materialize(NewSelect(encSession(), NewScan(encSession(), tab), "t/sel0", preds...))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Rows() == 0 {
		t.Fatal("test predicates select nothing; weaken them")
	}
	push, rest := PushdownSplit(tab, nil, preds)
	if len(push) != len(preds) || len(rest) != 0 {
		t.Fatalf("all conjuncts should push down, got %d/%d", len(push), len(rest))
	}
	s := encSession()
	es := NewEncodedScan(s, tab, "t/scan0").Pushdown("t/sel0", push...)
	enc, err := Materialize(NewSelect(s, es, "t/sel0-rest", rest...))
	if err != nil {
		t.Fatal(err)
	}
	tableEqual(t, enc, flat, "pushdown")
	// Both selenc and decompress instances must exist and carry the calls.
	var selenc, dec bool
	for _, inst := range s.Instances() {
		switch {
		case inst.Calls > 0 && inst.Prim.Class == hw.ClassDecompress && strings.HasPrefix(inst.Label, "t/sel0"):
			selenc = true
		case inst.Calls > 0 && inst.Prim.Class == hw.ClassDecompress:
			dec = true
		}
	}
	if !selenc || !dec {
		t.Errorf("expected live selenc and decompress instances (selenc=%v dec=%v)", selenc, dec)
	}

	// An unsatisfiable pushed predicate still streams empty-selection
	// batches (cadence) and produces zero rows.
	s2 := encSession()
	es2 := NewEncodedScan(s2, tab, "t/scan0").Pushdown("t/sel0", CmpVal(0, "<", -1))
	none, err := Materialize(es2)
	if err != nil {
		t.Fatal(err)
	}
	if none.Rows() != 0 {
		t.Errorf("unsatisfiable pushdown returned %d rows", none.Rows())
	}
}

// TestPushdownSplitBoundaries: the split is the maximal pushable prefix.
func TestPushdownSplitBoundaries(t *testing.T) {
	tab := encTestTable(1000)
	EncodeTable(tab)
	if tab.Enc.Cols[tab.Sch.MustIndexOf("id")].Encoding() != storage.Flat {
		t.Skip("id column unexpectedly compressed; boundary case needs a flat column")
	}
	// id is flat: its conjunct blocks the split there.
	preds := []Pred{CmpVal(0, ">", 705), CmpVal(2, ">", 0), CmpVal(1, "<", 10)}
	push, rest := PushdownSplit(tab, nil, preds)
	if len(push) != 1 || len(rest) != 2 {
		t.Errorf("split = %d/%d, want 1/2 (flat column stops the prefix)", len(push), len(rest))
	}
	// Column-vs-column and IN conjuncts never push.
	push, rest = PushdownSplit(tab, nil, []Pred{CmpCol(0, "<", 1), CmpVal(0, ">", 0)})
	if len(push) != 0 || len(rest) != 2 {
		t.Errorf("col-col split = %d/%d, want 0/2", len(push), len(rest))
	}
	// Unencoded tables push nothing.
	flatTab := encTestTable(100)
	if push, _ = PushdownSplit(flatTab, nil, preds); push != nil {
		t.Error("flat table pushed conjuncts")
	}
}
