package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/service"
	"microadapt/internal/vector"
)

// wireBinCases are the round-trip fixtures the codec must preserve
// bit-exactly: empty and zero-row tables, all-equal columns, non-finite
// floats (which JSON cannot carry at all), signed zeros, and wide
// strings.
func wireBinCases() []*TableJSON {
	wide := strings.Repeat("x", 1<<16) + "π∞" // multi-byte tail past one chunk of anything
	return []*TableJSON{
		{Name: "empty"},
		{Name: "zero-row", Rows: 0, Cols: []ColumnJSON{
			{Name: "k", Type: "slng", I64: []int64{}},
			{Name: "v", Type: "dbl", F64: []float64{}},
			{Name: "s", Type: "str", Str: []string{}},
		}},
		{Name: "all-types", Rows: 3, Cols: []ColumnJSON{
			{Name: "a", Type: "schr", I64: []int64{-128, 0, 127}},
			{Name: "b", Type: "sint", I64: []int64{math.MinInt16, 0, math.MaxInt16}},
			{Name: "c", Type: "slng", I64: []int64{math.MinInt64, -1, math.MaxInt64}},
			{Name: "d", Type: "dbl", F64: []float64{-1.5, 0, 6.02214076e23}},
			{Name: "e", Type: "str", Str: []string{"", "hello", "héllo"}},
		}},
		{Name: "all-equal", Rows: 4, Cols: []ColumnJSON{
			{Name: "k", Type: "slng", I64: []int64{7, 7, 7, 7}},
		}},
		{Name: "non-finite", Rows: 5, Cols: []ColumnJSON{
			{Name: "f", Type: "dbl", F64: []float64{
				math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
			}},
		}},
		{Name: "wide-strings", Rows: 2, Cols: []ColumnJSON{
			{Name: "s", Type: "str", Str: []string{wide, "short"}},
		}},
	}
}

func TestWireBinRoundTrip(t *testing.T) {
	for _, tj := range wireBinCases() {
		data, err := MarshalTableBin(tj)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tj.Name, err)
		}
		got, err := UnmarshalTableBin(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tj.Name, err)
		}
		if d := bitDiff(got, tj); d != "" || got.Name != tj.Name {
			t.Errorf("%s: round trip not bit-identical (name %q): %s", tj.Name, got.Name, d)
		}
	}
}

// bitDiff says where a differs from want, or is "" when the two hold
// bit-identical results: column names and types, integers, strings and
// raw float bits (NaN payloads and -0 included), a column in F64Bits
// escape form matching its plain-F64 twin. Table names are not compared.
func bitDiff(a, want *TableJSON) string {
	if a.Rows != want.Rows || len(a.Cols) != len(want.Cols) {
		return fmt.Sprintf("%d rows in %d columns, want %d in %d", a.Rows, len(a.Cols), want.Rows, len(want.Cols))
	}
	floatBits := func(c *ColumnJSON) []uint64 {
		if len(c.F64Bits) > 0 {
			return c.F64Bits
		}
		bits := make([]uint64, len(c.F64))
		for r, v := range c.F64 {
			bits[r] = math.Float64bits(v)
		}
		return bits
	}
	for ci := range want.Cols {
		x, y := &a.Cols[ci], &want.Cols[ci]
		if x.Name != y.Name || x.Type != y.Type || !slices.Equal(x.I64, y.I64) ||
			!slices.Equal(x.Str, y.Str) || !slices.Equal(floatBits(x), floatBits(y)) {
			return fmt.Sprintf("column %d is %+v, want %+v", ci, *x, *y)
		}
	}
	return ""
}

// TestWireBinEscapedFormPacksIdentically: a table in F64Bits escape form
// (post EscapeNonFinite) and its plain-F64 twin produce the same bytes —
// the binary body always carries raw bits.
func TestWireBinEscapedFormPacksIdentically(t *testing.T) {
	plain := &TableJSON{Name: "t", Rows: 2, Cols: []ColumnJSON{
		{Name: "f", Type: "dbl", F64: []float64{math.NaN(), 1.5}},
	}}
	escaped := &TableJSON{Name: "t", Rows: 2, Cols: []ColumnJSON{
		{Name: "f", Type: "dbl", F64: []float64{math.NaN(), 1.5}},
	}}
	escaped.EscapeNonFinite()
	if len(escaped.Cols[0].F64Bits) == 0 {
		t.Fatal("EscapeNonFinite left a NaN column in F64 form")
	}
	a, err := MarshalTableBin(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalTableBin(escaped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("escaped and plain forms pack differently")
	}
}

// TestWireBinRejectsCorrupt: every truncation of a valid encoding, plus
// assorted structural corruptions, error cleanly — never panic, never
// decode to a wrong table.
func TestWireBinRejectsCorrupt(t *testing.T) {
	valid, err := MarshalTableBin(wireBinCases()[2]) // all-types
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := UnmarshalTableBin(valid[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(valid))
		}
	}
	corrupt := map[string][]byte{
		"empty":           {},
		"bad-magic":       append([]byte("XXXX"), valid[4:]...),
		"trailing-bytes":  append(append([]byte{}, valid...), 0),
		"huge-row-claim":  {'M', 'W', 'T', '1', 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"bad-type-code":   {'M', 'W', 'T', '1', 0, 0, 1, 1, 'c', 99},
		"string-len-lies": {'M', 'W', 'T', '1', 0, 1, 1, 1, 's', 5, 200, 'x'},
	}
	for name, data := range corrupt {
		if _, err := UnmarshalTableBin(data); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
}

// TestWireBinMarshalRejectsRaggedColumn: a column whose value count
// disagrees with the declared row count must not encode.
func TestWireBinMarshalRejectsRaggedColumn(t *testing.T) {
	_, err := MarshalTableBin(&TableJSON{Name: "t", Rows: 3, Cols: []ColumnJSON{
		{Name: "k", Type: "slng", I64: []int64{1, 2}},
	}})
	if err == nil {
		t.Error("ragged column encoded cleanly")
	}
}

// FuzzWireBin: arbitrary bytes never panic the decoder, and anything it
// does accept re-encodes to a table equal to the first decode (the codec
// is a lossless involution on its own output).
func FuzzWireBin(f *testing.F) {
	for _, tj := range wireBinCases() {
		if data, err := MarshalTableBin(tj); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("MWT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tj, err := UnmarshalTableBin(data)
		if err != nil {
			return
		}
		re, err := MarshalTableBin(tj)
		if err != nil {
			t.Fatalf("accepted table does not re-marshal: %v", err)
		}
		back, err := UnmarshalTableBin(re)
		if err != nil {
			t.Fatalf("re-marshalled table does not decode: %v", err)
		}
		if d := bitDiff(back, tj); d != "" || back.Name != tj.Name {
			t.Fatalf("unmarshal∘marshal is not the identity: %s", d)
		}
	})
}

// TestDecodeTableNarrowingBoundaries: decode narrows wire I64 back to the
// declared width (schr=16-bit, sint=32-bit), accepting the exact type
// bounds and rejecting one past them rather than silently truncating.
func TestDecodeTableNarrowingBoundaries(t *testing.T) {
	cases := []struct {
		typ string
		val int64
		ok  bool
	}{
		{"schr", math.MinInt16, true},
		{"schr", math.MaxInt16, true},
		{"schr", math.MinInt16 - 1, false},
		{"schr", math.MaxInt16 + 1, false},
		{"sint", math.MinInt32, true},
		{"sint", math.MaxInt32, true},
		{"sint", math.MinInt32 - 1, false},
		{"sint", math.MaxInt32 + 1, false},
		{"slng", math.MinInt32 - 1, true}, // slng is 64-bit: no narrowing
		{"slng", math.MaxInt32 + 1, true},
	}
	for _, tc := range cases {
		tj := &TableJSON{Name: "t", Rows: 1, Cols: []ColumnJSON{
			{Name: "k", Type: tc.typ, I64: []int64{tc.val}},
		}}
		_, err := DecodeTable(tj)
		if tc.ok && err != nil {
			t.Errorf("%s %d: rejected: %v", tc.typ, tc.val, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s %d: accepted out-of-range value", tc.typ, tc.val)
		}
	}
}

// TestEscapeNonFiniteJSONRoundTrip pins the JSON-path behavior the
// escape exists for: json.Marshal fails outright on a non-finite float,
// and the escaped form marshals cleanly and round-trips bit-exactly
// through both json and DecodeTable.
func TestEscapeNonFiniteJSONRoundTrip(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5}
	raw := &TableJSON{Name: "t", Rows: 4, Cols: []ColumnJSON{
		{Name: "f", Type: "dbl", F64: append([]float64{}, vals...)},
	}}
	if _, err := json.Marshal(raw); err == nil {
		t.Fatal("json.Marshal accepted a non-finite float; the escape would be dead code")
	}
	data, err := json.Marshal(raw.EscapeNonFinite())
	if err != nil {
		t.Fatalf("escaped table does not marshal: %v", err)
	}
	var back TableJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	tab, err := DecodeTable(&back)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range vals {
		if got := tab.Cols[0].GetF64(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %d: %v (bits %016x), want %v", r, got, math.Float64bits(got), want)
		}
	}
}

// TestDecodeTableRejectsBothFloatForms: a column carrying both f64 and
// f64b is malformed, not a choice.
func TestDecodeTableRejectsBothFloatForms(t *testing.T) {
	_, err := DecodeTable(&TableJSON{Name: "t", Rows: 1, Cols: []ColumnJSON{
		{Name: "f", Type: "dbl", F64: []float64{1}, F64Bits: []uint64{2}},
	}})
	if err == nil {
		t.Error("column with both float forms decoded cleanly")
	}
}

// nonFiniteTable is an engine table no TPC-H query produces but a wire
// plan could: a dbl column holding NaN and both infinities.
func nonFiniteTable() *engine.Table {
	sch := vector.Schema{
		{Name: "k", Type: vector.I64},
		{Name: "f", Type: vector.F64},
	}
	cols := []*vector.Vector{
		vector.FromI64([]int64{1, 2, 3, 4, 5, 6}),
		vector.FromF64([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1.5, 2.5}),
	}
	return engine.NewTable("nf", sch, cols)
}

// nonFiniteExec answers every plan with nonFiniteTable.
type nonFiniteExec struct{ *service.Service }

func (nonFiniteExec) ExecutePlan(*plan.Builder) (*engine.Table, service.JobStats, error) {
	return nonFiniteTable(), service.JobStats{}, nil
}

// TestPlanStreamNonFinite: a NaN/±Inf plan result round-trips
// bit-exactly over both forms a result takes on the wire — the stream's
// binary chunks, with no error frame after the committed 200, and the
// buffered /v1/plan JSON body through the f64b escape.
func TestPlanStreamNonFinite(t *testing.T) {
	_, c := startTestServer(t, Config{Service: nonFiniteExec{testService(false)}, StreamChunkRows: 4})
	body, err := EncodePlanRequest(PlanRequest{Plan: marshalQueryPlan(t, 6), IncludeResult: true})
	if err != nil {
		t.Fatal(err)
	}
	want := nonFiniteTable()
	// requireBits checks tj against want's rows starting at off.
	requireBits := func(t *testing.T, tj *TableJSON, off int) {
		t.Helper()
		tab, err := DecodeTable(tj)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tab.Rows(); r++ {
			wb := math.Float64bits(want.Cols[1].GetF64(off + r))
			if gb := math.Float64bits(tab.Cols[1].GetF64(r)); gb != wb {
				t.Errorf("row %d: bits %016x, want %016x", off+r, gb, wb)
			}
		}
	}

	t.Run("bin", func(t *testing.T) {
		rows := 0
		res, err := c.PlanStreamEncoded(body, func(tj *TableJSON) error {
			requireBits(t, tj, rows)
			rows += tj.Rows
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Chunks != 2 || rows != want.Rows() {
			t.Errorf("%d rows in %d chunks, want %d rows in 2 (cap 4)", rows, res.Chunks, want.Rows())
		}
	})
	t.Run("json", func(t *testing.T) {
		out, err := c.PlanEncoded(body)
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK() {
			t.Fatalf("status %d: %+v", out.Status, out.Err)
		}
		tj, err := out.Response.ResultTable()
		if err != nil {
			t.Fatal(err)
		}
		if tj == nil || len(tj.Cols[1].F64Bits) == 0 {
			t.Fatal("JSON body did not carry the non-finite column in its f64b form")
		}
		requireBits(t, tj, 0)
	})
}
