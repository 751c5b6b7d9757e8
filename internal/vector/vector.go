// Package vector provides the typed value vectors, selection vectors and
// batches that form the data plane of the vectorized executor.
//
// A Vector is a fixed-capacity, variable-length array of values of a single
// Type. Primitives operate on whole vectors; an optional selection vector
// (a []int32 of qualifying positions) restricts which positions are live,
// mirroring the Vectorwise design described in the paper (Listing 4,
// Figure 7).
package vector

import "fmt"

// Type enumerates the value types supported by the engine. The names follow
// the paper's nomenclature: schr (short, 16-bit), sint (int, 32-bit),
// slng (long, 64-bit), plus float64 and string.
type Type uint8

const (
	// Invalid is the zero Type; it is never valid in a live vector.
	Invalid Type = iota
	// I16 is a 16-bit signed integer ("schr" in the paper).
	I16
	// I32 is a 32-bit signed integer ("sint" in the paper). Dates are
	// stored as I32 days since epoch.
	I32
	// I64 is a 64-bit signed integer ("slng" in the paper).
	I64
	// F64 is a 64-bit float.
	F64
	// Str is a Go string.
	Str
)

// String returns the paper-style name of the type.
func (t Type) String() string {
	switch t {
	case I16:
		return "schr"
	case I32:
		return "sint"
	case I64:
		return "slng"
	case F64:
		return "dbl"
	case Str:
		return "str"
	default:
		return "invalid"
	}
}

// Width returns the size of one value in bytes (16 for strings, as an
// approximation of a pointer+length header used by the cost model).
func (t Type) Width() int {
	switch t {
	case I16:
		return 2
	case I32:
		return 4
	case I64:
		return 8
	case F64:
		return 8
	case Str:
		return 16
	default:
		return 0
	}
}

// Vector is a typed array of values. Exactly one of the typed slices is
// non-nil, matching typ. A Vector has a length (live tuples) and a capacity
// (allocated tuples).
type Vector struct {
	typ Type
	n   int
	i16 []int16
	i32 []int32
	i64 []int64
	f64 []float64
	str []string
}

// New allocates a vector of the given type and capacity with length 0.
func New(t Type, capacity int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case I16:
		v.i16 = make([]int16, capacity)
	case I32:
		v.i32 = make([]int32, capacity)
	case I64:
		v.i64 = make([]int64, capacity)
	case F64:
		v.f64 = make([]float64, capacity)
	case Str:
		v.str = make([]string, capacity)
	default:
		panic(fmt.Sprintf("vector.New: invalid type %d", t))
	}
	return v
}

// FromI16 wraps an existing slice without copying; length = len(vals).
func FromI16(vals []int16) *Vector { return &Vector{typ: I16, n: len(vals), i16: vals} }

// FromI32 wraps an existing slice without copying; length = len(vals).
func FromI32(vals []int32) *Vector { return &Vector{typ: I32, n: len(vals), i32: vals} }

// FromI64 wraps an existing slice without copying; length = len(vals).
func FromI64(vals []int64) *Vector { return &Vector{typ: I64, n: len(vals), i64: vals} }

// FromF64 wraps an existing slice without copying; length = len(vals).
func FromF64(vals []float64) *Vector { return &Vector{typ: F64, n: len(vals), f64: vals} }

// FromStr wraps an existing slice without copying; length = len(vals).
func FromStr(vals []string) *Vector { return &Vector{typ: Str, n: len(vals), str: vals} }

// ConstI32 builds a single-value I32 vector, used for _val (constant)
// primitive parameters.
func ConstI32(val int32) *Vector { return FromI32([]int32{val}) }

// ConstI16 builds a single-value I16 vector.
func ConstI16(val int16) *Vector { return FromI16([]int16{val}) }

// ConstI64 builds a single-value I64 vector.
func ConstI64(val int64) *Vector { return FromI64([]int64{val}) }

// ConstF64 builds a single-value F64 vector.
func ConstF64(val float64) *Vector { return FromF64([]float64{val}) }

// ConstStr builds a single-value Str vector.
func ConstStr(val string) *Vector { return FromStr([]string{val}) }

// Type returns the element type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of live tuples.
func (v *Vector) Len() int { return v.n }

// SetLen sets the number of live tuples. It panics if n exceeds capacity.
func (v *Vector) SetLen(n int) {
	if n > v.Cap() {
		panic(fmt.Sprintf("vector.SetLen: %d exceeds capacity %d", n, v.Cap()))
	}
	v.n = n
}

// Cap returns the allocated capacity in tuples.
func (v *Vector) Cap() int {
	switch v.typ {
	case I16:
		return len(v.i16)
	case I32:
		return len(v.i32)
	case I64:
		return len(v.i64)
	case F64:
		return len(v.f64)
	case Str:
		return len(v.str)
	default:
		return 0
	}
}

// I16 returns the full-capacity backing slice; it panics on type mismatch.
func (v *Vector) I16() []int16 {
	v.check(I16)
	return v.i16
}

// I32 returns the full-capacity backing slice; it panics on type mismatch.
func (v *Vector) I32() []int32 {
	v.check(I32)
	return v.i32
}

// I64 returns the full-capacity backing slice; it panics on type mismatch.
func (v *Vector) I64() []int64 {
	v.check(I64)
	return v.i64
}

// F64 returns the full-capacity backing slice; it panics on type mismatch.
func (v *Vector) F64() []float64 {
	v.check(F64)
	return v.f64
}

// Str returns the full-capacity backing slice; it panics on type mismatch.
func (v *Vector) Str() []string {
	v.check(Str)
	return v.str
}

func (v *Vector) check(t Type) {
	if v.typ != t {
		panic(fmt.Sprintf("vector: have %s, want %s", v.typ, t))
	}
}

// Slice returns a zero-copy view of tuples [lo, hi).
func (v *Vector) Slice(lo, hi int) *Vector {
	out := new(Vector)
	v.SliceInto(out, lo, hi)
	return out
}

// SliceInto makes dst a zero-copy view of tuples [lo, hi) of v, replacing
// whatever dst viewed before: the allocation-free form of Slice for
// operators that emit a fresh window of the same columns on every batch.
func (v *Vector) SliceInto(dst *Vector, lo, hi int) {
	*dst = Vector{typ: v.typ, n: hi - lo}
	switch v.typ {
	case I16:
		dst.i16 = v.i16[lo:hi]
	case I32:
		dst.i32 = v.i32[lo:hi]
	case I64:
		dst.i64 = v.i64[lo:hi]
	case F64:
		dst.f64 = v.f64[lo:hi]
	case Str:
		dst.str = v.str[lo:hi]
	}
}

// Reuse returns a vector of type t and length n for an operator to write a
// batch's results into: v itself when it already has the type and the
// capacity, a new vector otherwise (v may be nil). Contents are whatever the
// previous batch left — positions the writer does not store to are stale,
// not zero, which is the contract result vectors have under a selection
// vector anyway.
func Reuse(v *Vector, t Type, n int) *Vector {
	if v == nil || v.typ != t || v.Cap() < n {
		v = New(t, n)
	}
	v.n = n
	return v
}

// GetI64 returns tuple i widened to int64 for any integer-typed vector.
// It is a convenience for tests and result verification, not a hot path.
func (v *Vector) GetI64(i int) int64 {
	switch v.typ {
	case I16:
		return int64(v.i16[i])
	case I32:
		return int64(v.i32[i])
	case I64:
		return v.i64[i]
	default:
		panic("vector.GetI64: not an integer vector")
	}
}

// GetF64 returns tuple i as float64 for numeric vectors.
func (v *Vector) GetF64(i int) float64 {
	switch v.typ {
	case I16:
		return float64(v.i16[i])
	case I32:
		return float64(v.i32[i])
	case I64:
		return float64(v.i64[i])
	case F64:
		return v.f64[i]
	default:
		panic("vector.GetF64: not a numeric vector")
	}
}

// GetStr returns tuple i of a string vector.
func (v *Vector) GetStr(i int) string {
	v.check(Str)
	return v.str[i]
}
