package storage

import (
	"math"
	"math/rand"
	"testing"

	"microadapt/internal/vector"
)

// mkI32 builds an I32 vector from values.
func mkI32(vals []int32) *vector.Vector { return vector.FromI32(vals) }

// randomVec generates one random vector whose shape is drawn from the
// generator: domain size controls dictionary viability, run bias controls
// RLE viability.
func randomVec(rng *rand.Rand, n, domain int, runBias float64) *vector.Vector {
	vals := make([]int32, n)
	cur := int32(rng.Intn(domain))
	for i := range vals {
		if rng.Float64() > runBias {
			cur = int32(rng.Intn(domain))
		}
		vals[i] = cur
	}
	return mkI32(vals)
}

// allEncodings returns v under every encoding it supports.
func allEncodings(t *testing.T, v *vector.Vector) map[Encoding]EncodedColumn {
	t.Helper()
	out := map[Encoding]EncodedColumn{}
	for _, e := range []Encoding{Flat, Dict, RLE, BitPack} {
		c, err := EncodeColumnAs(v, e)
		if err != nil {
			continue
		}
		out[e] = c
	}
	return out
}

// checkRoundTrip asserts enc reconstructs v bit-identically through both
// access paths: full-range decode, windowed decode and selective gather.
func checkRoundTrip(t *testing.T, enc EncodedColumn, v *vector.Vector, rng *rand.Rand) {
	t.Helper()
	n := v.Len()
	if enc.Len() != n {
		t.Fatalf("%s: Len %d, want %d", enc.Encoding(), enc.Len(), n)
	}
	decode := func(lo, hi int) *vector.Vector {
		dst := vector.New(v.Type(), hi-lo)
		dst.SetLen(hi - lo)
		enc.DecodeRange(lo, hi, dst)
		return dst
	}
	full := decode(0, n)
	for i := 0; i < n; i++ {
		if got, want := full.GetI64(i), v.GetI64(i); got != want {
			t.Fatalf("%s: DecodeRange[%d] = %d, want %d", enc.Encoding(), i, got, want)
		}
	}
	for w := 0; w < 4 && n > 0; w++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		win := decode(lo, hi)
		for i := lo; i < hi; i++ {
			if got, want := win.GetI64(i-lo), v.GetI64(i); got != want {
				t.Fatalf("%s: DecodeRange[%d,%d)[%d] = %d, want %d", enc.Encoding(), lo, hi, i-lo, got, want)
			}
		}
		var sel []int32
		for p := rng.Intn(3); p < hi-lo; p += 1 + rng.Intn(3) {
			sel = append(sel, int32(p))
		}
		if len(sel) == 0 {
			continue
		}
		dst := vector.New(v.Type(), hi-lo)
		dst.SetLen(hi - lo)
		enc.Gather(lo, sel, dst)
		for _, p := range sel {
			if got, want := dst.GetI64(int(p)), v.GetI64(lo+int(p)); got != want {
				t.Fatalf("%s: Gather lo=%d pos=%d = %d, want %d", enc.Encoding(), lo, p, got, want)
			}
		}
	}
}

// TestRoundTripRandomized: encode→decode must be bit-identical for every
// encoding on randomized vectors across the viability spectrum.
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		domain := 1 + rng.Intn(1<<uint(rng.Intn(16)))
		v := randomVec(rng, n, domain, rng.Float64())
		for _, enc := range allEncodings(t, v) {
			checkRoundTrip(t, enc, v, rng)
		}
	}
}

// TestRoundTripEdgeCases covers the boundary shapes every encoding must
// survive: empty, single value, all-equal (one max-length run, width-0
// packing), all-distinct (worst case for dict/RLE), and a two-value
// alternation (max run count at minimal domain).
func TestRoundTripEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := map[string][]int32{
		"empty":       {},
		"single":      {42},
		"all-equal":   make([]int32, 500),
		"alternating": make([]int32, 257),
		"negative":    {-5, -5, math.MinInt32, math.MaxInt32, 0},
	}
	for i := range cases["all-equal"] {
		cases["all-equal"][i] = 7
	}
	for i := range cases["alternating"] {
		cases["alternating"][i] = int32(i % 2)
	}
	distinct := make([]int32, 1000)
	for i := range distinct {
		distinct[i] = int32(i * 13)
	}
	cases["all-distinct"] = distinct
	for name, vals := range cases {
		v := mkI32(vals)
		encs := allEncodings(t, v)
		if len(encs) < 2 {
			t.Fatalf("%s: only %d encodings applied", name, len(encs))
		}
		for _, enc := range encs {
			checkRoundTrip(t, enc, v, rng)
		}
	}
}

// TestRoundTripAllTypes: every element type round-trips under every
// encoding that supports it.
func TestRoundTripAllTypes(t *testing.T) {
	n := 300
	i16s := make([]int16, n)
	i64s := make([]int64, n)
	f64s := make([]float64, n)
	strs := make([]string, n)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		i16s[i] = int16(i % 37)
		i64s[i] = int64(i/9) * 1000
		f64s[i] = float64(i%23) / 7
		strs[i] = words[i%len(words)]
	}
	vecs := []*vector.Vector{
		vector.FromI16(i16s), vector.FromI64(i64s), vector.FromF64(f64s), vector.FromStr(strs),
	}
	for _, v := range vecs {
		for _, enc := range allEncodings(t, v) {
			dst := vector.New(v.Type(), n)
			dst.SetLen(n)
			enc.DecodeRange(0, n, dst)
			for i := 0; i < n; i++ {
				same := false
				switch v.Type() {
				case vector.Str:
					same = dst.GetStr(i) == v.GetStr(i)
				case vector.F64:
					same = dst.GetF64(i) == v.GetF64(i)
				default:
					same = dst.GetI64(i) == v.GetI64(i)
				}
				if !same {
					t.Fatalf("%s/%s: round trip diverges at %d", v.Type(), enc.Encoding(), i)
				}
			}
		}
	}
}

// TestSelectConstMatchesNaive: the operate-on-compressed predicate path of
// every encoding that offers one must produce exactly the naive
// decode-and-compare selection, with and without an input selection.
func TestSelectConstMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	cmp := map[string]func(a, b int32) bool{
		"<":  func(a, b int32) bool { return a < b },
		"<=": func(a, b int32) bool { return a <= b },
		">":  func(a, b int32) bool { return a > b },
		">=": func(a, b int32) bool { return a >= b },
		"==": func(a, b int32) bool { return a == b },
		"!=": func(a, b int32) bool { return a != b },
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		v := randomVec(rng, n, 1+rng.Intn(50), rng.Float64())
		vals := v.I32()[:n]
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		var sel []int32
		if trial%2 == 0 {
			for p := 0; p < hi-lo; p += 1 + rng.Intn(4) {
				sel = append(sel, int32(p))
			}
		}
		rhs := int32(rng.Intn(60) - 5)
		for _, op := range ops {
			var want []int32
			if sel != nil {
				for _, p := range sel {
					if cmp[op](vals[lo+int(p)], rhs) {
						want = append(want, p)
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					if cmp[op](vals[i], rhs) {
						want = append(want, int32(i-lo))
					}
				}
			}
			for _, enc := range allEncodings(t, v) {
				out := make([]int32, n)
				k, ok := enc.SelectConst(lo, hi, op, vector.ConstI32(rhs), sel, out)
				if !ok {
					continue // no compressed-form path; flavors decode instead
				}
				got := out[:k]
				if len(got) != len(want) {
					t.Fatalf("%s %s rhs=%d: %d selected, want %d", enc.Encoding(), op, rhs, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s: position %d = %d, want %d", enc.Encoding(), op, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDictRejectsNaNAndFallsBack: NaN columns are not dictionary-encodable
// (the sorted order would break silently), a NaN constant must refuse the
// code-interval path, and RLE must round-trip NaN runs bit-exactly.
func TestDictRejectsNaNAndFallsBack(t *testing.T) {
	withNaN := vector.FromF64([]float64{1, math.NaN(), 2, 2, math.NaN()})
	if _, err := EncodeColumnAs(withNaN, Dict); err == nil {
		t.Error("dict-encoding a NaN column should fail")
	}
	rle, err := EncodeColumnAs(withNaN, RLE)
	if err != nil {
		t.Fatalf("RLE over NaN column: %v", err)
	}
	dst := vector.New(vector.F64, 5)
	dst.SetLen(5)
	rle.DecodeRange(0, 5, dst)
	for i, want := range []bool{false, true, false, false, true} {
		if math.IsNaN(dst.GetF64(i)) != want {
			t.Errorf("RLE NaN round trip diverges at %d", i)
		}
	}
	clean := vector.FromF64([]float64{1, 2, 2, 3, 1})
	dict, err := EncodeColumnAs(clean, Dict)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 5)
	if _, ok := dict.SelectConst(0, 5, "<", vector.ConstF64(math.NaN()), nil, out); ok {
		t.Error("dict SelectConst with NaN constant should report no compressed path")
	}
}

// TestSignedZeroRoundTrips: +0.0 and -0.0 compare equal under Go ==, so a
// value-keyed encoding could silently canonicalize one sign. Dict must
// refuse such columns; RLE must keep the signs bit-exact (runs group by
// bit equality, not value equality).
func TestSignedZeroRoundTrips(t *testing.T) {
	negZero := math.Copysign(0, -1)
	v := vector.FromF64([]float64{0, negZero, 0, negZero, negZero, 1})
	if _, err := EncodeColumnAs(v, Dict); err == nil {
		t.Error("dict-encoding a column with -0.0 should fail")
	}
	rle, err := EncodeColumnAs(v, RLE)
	if err != nil {
		t.Fatal(err)
	}
	if rle.Units() != 5 {
		t.Errorf("runs = %d, want 5 (+0 and -0 must not merge)", rle.Units())
	}
	dst := vector.New(vector.F64, 6)
	dst.SetLen(6)
	rle.DecodeRange(0, 6, dst)
	for i := 0; i < 6; i++ {
		if math.Float64bits(dst.GetF64(i)) != math.Float64bits(v.GetF64(i)) {
			t.Errorf("position %d: bits %x, want %x", i,
				math.Float64bits(dst.GetF64(i)), math.Float64bits(v.GetF64(i)))
		}
	}
	// The analyzer must still return *some* bit-faithful encoding.
	enc := EncodeColumn(v)
	dst2 := vector.New(vector.F64, 6)
	dst2.SetLen(6)
	enc.DecodeRange(0, 6, dst2)
	for i := 0; i < 6; i++ {
		if math.Float64bits(dst2.GetF64(i)) != math.Float64bits(v.GetF64(i)) {
			t.Errorf("analyzer pick %s: position %d not bit-exact", enc.Encoding(), i)
		}
	}
}

// TestAnalyzerPicksSmallest: EncodeColumn must return an encoding no larger
// than flat, and strictly smaller when an obvious structure exists.
func TestAnalyzerPicksSmallest(t *testing.T) {
	runs := make([]int32, 4000)
	for i := range runs {
		runs[i] = int32(i / 400)
	}
	if enc := EncodeColumn(mkI32(runs)); enc.Encoding() == Flat {
		t.Errorf("run-structured column stayed flat")
	}
	words := make([]string, 2000)
	for i := range words {
		words[i] = []string{"AIR", "RAIL", "SHIP"}[i%3]
	}
	if enc := EncodeColumn(vector.FromStr(words)); enc.Encoding() != Dict && enc.Encoding() != RLE {
		t.Errorf("low-cardinality strings got %s", enc.Encoding())
	}
	rng := rand.New(rand.NewSource(14))
	noise := make([]string, 500)
	for i := range noise {
		b := make([]byte, 12)
		rng.Read(b)
		noise[i] = string(b)
	}
	if enc := EncodeColumn(vector.FromStr(noise)); enc.Encoding() != Flat {
		t.Errorf("incompressible strings got %s", enc.Encoding())
	}
	for _, vals := range [][]int32{runs, {1, 2, 3}} {
		enc := EncodeColumn(mkI32(vals))
		flat := len(vals) * 4
		if enc.EncodedBytes() > flat {
			t.Errorf("%s resident %d bytes > flat %d", enc.Encoding(), enc.EncodedBytes(), flat)
		}
	}
}

// TestEncodedTableAccounting: table-level byte accounting and summaries.
func TestEncodedTableAccounting(t *testing.T) {
	n := 1000
	a := make([]int32, n)
	b := make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = int32(i / 100)
		b[i] = []string{"x", "y"}[i%2]
	}
	tab := Encode("t", vector.Schema{{Name: "a", Type: vector.I32}, {Name: "b", Type: vector.Str}},
		[]*vector.Vector{mkI32(a), vector.FromStr(b)})
	if tab.rows != n {
		t.Fatalf("rows = %d, want %d", tab.rows, n)
	}
	if tab.ResidentBytes() >= tab.FlatBytes() {
		t.Errorf("resident %d >= flat %d", tab.ResidentBytes(), tab.FlatBytes())
	}
	if s := tab.Summary(); len(s) == 0 {
		t.Error("empty summary")
	}
	if tab.Cols[tab.Sch.MustIndexOf("a")].Len() != n {
		t.Error("Col lookup broken")
	}
}
