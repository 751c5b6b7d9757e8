// Package storage implements compressed columnar storage: per-column
// encodings (dictionary, run-length, bit-packed integers, plus a flat
// passthrough) behind one EncodedColumn interface, an analyzer that picks
// the smallest encoding per column at load time, and EncodedTable, the
// compressed-resident form of a relation.
//
// The package deliberately knows nothing about operators or primitives: it
// exposes exactly the three access paths the decompression flavor family in
// internal/primitive competes over — eager range decode, lazy per-selection
// gather, and operate-on-compressed predicate evaluation — and the engine's
// encoded scan wires them to adaptive primitive instances. Which path wins
// is data-dependent (run lengths, dictionary size, selectivity), which is
// what makes decompression a Micro Adaptivity scenario rather than a fixed
// choice.
package storage

import (
	"fmt"
	"math"

	"microadapt/internal/vector"
)

// Encoding enumerates the column encodings.
type Encoding uint8

const (
	// Flat is the uncompressed passthrough (the seed engine's only form).
	Flat Encoding = iota
	// Dict is dictionary encoding: a sorted array of distinct values plus
	// one small code per row. Sorted dictionaries let range predicates run
	// on codes alone.
	Dict
	// RLE is run-length encoding: run values plus exclusive end offsets.
	// Predicates evaluate once per run instead of once per row.
	RLE
	// BitPack is frame-of-reference bit packing for integer columns:
	// value-minus-min stored in ceil(log2(range)) bits.
	BitPack
)

// String returns the encoding's short name.
func (e Encoding) String() string {
	switch e {
	case Flat:
		return "flat"
	case Dict:
		return "dict"
	case RLE:
		return "rle"
	case BitPack:
		return "bitpack"
	default:
		return "invalid"
	}
}

// EncodedColumn is one column resident in encoded form. Positions handed to
// the access methods are batch-relative: lo is the table row offset of
// batch position 0, and selection vectors / outputs index positions within
// the batch, matching the convention of core.Call.
type EncodedColumn interface {
	// Encoding identifies the storage scheme.
	Encoding() Encoding
	// Type is the decoded element type.
	Type() vector.Type
	// Len is the row count.
	Len() int
	// EncodedBytes is the resident size of the encoded form.
	EncodedBytes() int
	// Units is the number of structural units a whole-column decode
	// touches: distinct values for Dict, runs for RLE, packed words for
	// BitPack, rows for Flat. Cost models read it.
	Units() int
	// DecodeRange writes rows [lo, hi) into dst[0 : hi-lo] (eager decode).
	DecodeRange(lo, hi int, dst *vector.Vector)
	// Gather writes row lo+p into dst[p] for every batch position p of sel
	// (lazy decode); other dst positions are left untouched. sel is
	// ascending, as all engine selection vectors are.
	Gather(lo int, sel []int32, dst *vector.Vector)
	// SelectConst evaluates "value <op> rhs" over batch rows [lo, hi)
	// restricted to sel (nil = all), appending qualifying batch positions
	// to out and returning their count. The boolean reports whether the
	// encoding evaluated the predicate on the compressed form; false means
	// the caller must decode and compare itself. rhs is the constant as a
	// 1-tuple vector of the column's type.
	SelectConst(lo, hi int, op string, rhs *vector.Vector, sel []int32, out []int32) (int, bool)
}

// elem covers every decodable element type.
type elem interface {
	~int16 | ~int32 | ~int64 | ~float64 | ~string
}

// typedSlice extracts the typed backing slice of a vector.
func typedSlice[T elem](v *vector.Vector) []T {
	switch any(*new(T)).(type) {
	case int16:
		return any(v.I16()).([]T)
	case int32:
		return any(v.I32()).([]T)
	case int64:
		return any(v.I64()).([]T)
	case float64:
		return any(v.F64()).([]T)
	case string:
		return any(v.Str()).([]T)
	default:
		panic("storage: unsupported element type")
	}
}

// vecTypeOf maps a Go element type to its vector.Type.
func vecTypeOf[T elem]() vector.Type {
	switch any(*new(T)).(type) {
	case int16:
		return vector.I16
	case int32:
		return vector.I32
	case int64:
		return vector.I64
	case float64:
		return vector.F64
	case string:
		return vector.Str
	default:
		panic("storage: unsupported element type")
	}
}

// compare evaluates a <op> b for one operator spelling. (A closure per
// operator would be a heap allocation per SelectConst call: a func literal
// in a generic function captures its type dictionary.)
func compare[T elem](op string, a, b T) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "==":
		return a == b
	case "!=":
		return a != b
	default:
		panic("storage: unknown comparison " + op)
	}
}

// isNaNVal reports whether a float64-typed element is NaN; every other
// element type reports false.
func isNaNVal[T elem](v T) bool {
	f, ok := any(v).(float64)
	return ok && math.IsNaN(f)
}

// isNegZeroVal reports whether a float64-typed element is -0.0. Negative
// zero compares equal to +0.0 under Go ==, so value-keyed encodings would
// silently canonicalize one sign — a bit-identity violation.
func isNegZeroVal[T elem](v T) bool {
	f, ok := any(v).(float64)
	return ok && f == 0 && math.Signbit(f)
}

// sameBits reports whether two elements are interchangeable in storage:
// bit equality for floats (distinguishes +0.0 from -0.0, groups identical
// NaNs), value equality for everything else.
func sameBits[T elem](a, b T) bool {
	if fa, ok := any(a).(float64); ok {
		return math.Float64bits(fa) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// EncodedTable is a relation resident in compressed columnar form: the
// engine keeps one next to (or instead of) the flat column vectors and
// scans it through adaptive decompression primitives.
type EncodedTable struct {
	Name string
	Sch  vector.Schema
	Cols []EncodedColumn
	rows int
}

// NewEncodedTable wraps already-encoded columns; all must share one length.
func NewEncodedTable(name string, sch vector.Schema, cols []EncodedColumn) *EncodedTable {
	if len(sch) != len(cols) {
		panic("storage.NewEncodedTable: schema/column count mismatch")
	}
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != rows {
				panic("storage.NewEncodedTable: column length mismatch in " + name)
			}
		}
	}
	return &EncodedTable{Name: name, Sch: sch, Cols: cols, rows: rows}
}

// ResidentBytes sums the encoded sizes of all columns.
func (t *EncodedTable) ResidentBytes() int {
	total := 0
	for _, c := range t.Cols {
		total += c.EncodedBytes()
	}
	return total
}

// FlatBytes is what the same data occupies uncompressed.
func (t *EncodedTable) FlatBytes() int {
	total := 0
	for i, c := range t.Sch {
		total += t.Cols[i].Len() * c.Type.Width()
	}
	return total
}

// Summary renders one line per column: name, encoding, encoded vs flat
// bytes — the load-time report of the analyzer's choices.
func (t *EncodedTable) Summary() string {
	out := fmt.Sprintf("%s: %d rows, %d -> %d bytes\n", t.Name, t.rows, t.FlatBytes(), t.ResidentBytes())
	for i, c := range t.Sch {
		enc := t.Cols[i]
		out += fmt.Sprintf("  %-20s %-8s %8d -> %8d bytes (units=%d)\n",
			c.Name, enc.Encoding(), enc.Len()*c.Type.Width(), enc.EncodedBytes(), enc.Units())
	}
	return out
}
