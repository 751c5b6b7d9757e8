package storage

import (
	"sort"

	"microadapt/internal/vector"
)

// dictMaxDistinct bounds the dictionary: codes are uint16, and one code
// value is kept free so every search bound (0..len) also fits in uint16.
const dictMaxDistinct = 1<<16 - 1

// dictColumn is sorted-dictionary encoding: values holds the distinct
// column values in ascending order, codes one index per row. Keeping the
// dictionary sorted is what lets range predicates run on the codes alone —
// "value < rhs" becomes "code < lowerBound(rhs)", one narrow integer
// compare per row with no value materialization.
type dictColumn[T elem] struct {
	typ    vector.Type
	values []T
	codes  []uint16
}

// newDictColumn encodes v, or reports false when the column is not
// dictionary-encodable: too many distinct values, float NaNs (they break
// both the sorted order and map-based code assignment), or a negative
// zero (it compares equal to +0.0, so the value-keyed dictionary would
// canonicalize the sign and break the bit-identical round trip).
func newDictColumn[T elem](v *vector.Vector) (EncodedColumn, bool) {
	src := typedSlice[T](v)[:v.Len()]
	distinct := make(map[T]struct{}, 256)
	for _, x := range src {
		if isNaNVal(x) || isNegZeroVal(x) {
			return nil, false
		}
		distinct[x] = struct{}{}
		if len(distinct) > dictMaxDistinct {
			return nil, false
		}
	}
	values := make([]T, 0, len(distinct))
	for x := range distinct {
		values = append(values, x)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	code := make(map[T]uint16, len(values))
	for i, x := range values {
		code[x] = uint16(i)
	}
	codes := make([]uint16, len(src))
	for i, x := range src {
		codes[i] = code[x]
	}
	return &dictColumn[T]{typ: vecTypeOf[T](), values: values, codes: codes}, true
}

func (c *dictColumn[T]) Encoding() Encoding { return Dict }
func (c *dictColumn[T]) Type() vector.Type  { return c.typ }
func (c *dictColumn[T]) Len() int           { return len(c.codes) }
func (c *dictColumn[T]) Units() int         { return len(c.values) }

func (c *dictColumn[T]) EncodedBytes() int {
	return len(c.values)*c.typ.Width() + 2*len(c.codes)
}

func (c *dictColumn[T]) DecodeRange(lo, hi int, dst *vector.Vector) {
	d := typedSlice[T](dst)
	for i := lo; i < hi; i++ {
		d[i-lo] = c.values[c.codes[i]]
	}
}

func (c *dictColumn[T]) Gather(lo int, sel []int32, dst *vector.Vector) {
	d := typedSlice[T](dst)
	for _, p := range sel {
		d[p] = c.values[c.codes[lo+int(p)]]
	}
}

// SelectConst evaluates the predicate on codes: the sorted dictionary maps
// the constant to a code interval once (two binary searches), then each row
// costs one uint16 compare.
func (c *dictColumn[T]) SelectConst(lo, hi int, op string, rhs *vector.Vector, sel []int32, out []int32) (int, bool) {
	val := typedSlice[T](rhs)[0]
	if isNaNVal(val) {
		// A NaN constant compares false under every operator except != on
		// real values; code arithmetic cannot express that — fall back.
		return 0, false
	}
	lb := sort.Search(len(c.values), func(i int) bool { return c.values[i] >= val })
	ub := sort.Search(len(c.values), func(i int) bool { return c.values[i] > val })
	exact := lb < ub // values[lb] == val
	// Express the predicate as a code interval [cLo, cHi) plus optional
	// negated point for "!=".
	var test func(code uint16) bool
	switch op {
	case "<":
		b := uint16(lb)
		test = func(code uint16) bool { return code < b }
	case "<=":
		b := uint16(ub)
		test = func(code uint16) bool { return code < b }
	case ">":
		b := uint16(ub)
		test = func(code uint16) bool { return code >= b }
	case ">=":
		b := uint16(lb)
		test = func(code uint16) bool { return code >= b }
	case "==":
		if !exact {
			test = func(uint16) bool { return false }
		} else {
			b := uint16(lb)
			test = func(code uint16) bool { return code == b }
		}
	case "!=":
		if !exact {
			test = func(uint16) bool { return true }
		} else {
			b := uint16(lb)
			test = func(code uint16) bool { return code != b }
		}
	default:
		return 0, false
	}
	k := 0
	if sel != nil {
		for _, p := range sel {
			if test(c.codes[lo+int(p)]) {
				out[k] = p
				k++
			}
		}
		return k, true
	}
	for i := lo; i < hi; i++ {
		if test(c.codes[i]) {
			out[k] = int32(i - lo)
			k++
		}
	}
	return k, true
}
