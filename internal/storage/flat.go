package storage

import "microadapt/internal/vector"

// flatColumn is the uncompressed passthrough: it references the original
// vector (zero copy) and exists so an EncodedTable can carry columns the
// analyzer found incompressible without a second storage form.
type flatColumn struct {
	v *vector.Vector
}

// NewFlatColumn wraps a vector without copying.
func NewFlatColumn(v *vector.Vector) EncodedColumn { return &flatColumn{v: v} }

// Unwrap returns the backing vector of a flat column, or nil for any real
// encoding. Scans use it to stream flat columns as zero-copy slices instead
// of paying a decode.
func Unwrap(c EncodedColumn) *vector.Vector {
	if fc, ok := c.(*flatColumn); ok {
		return fc.v
	}
	return nil
}

func (c *flatColumn) Encoding() Encoding { return Flat }
func (c *flatColumn) Type() vector.Type  { return c.v.Type() }
func (c *flatColumn) Len() int           { return c.v.Len() }
func (c *flatColumn) EncodedBytes() int  { return c.v.Len() * c.v.Type().Width() }
func (c *flatColumn) Units() int         { return c.v.Len() }

func (c *flatColumn) DecodeRange(lo, hi int, dst *vector.Vector) {
	switch c.v.Type() {
	case vector.I16:
		copy(dst.I16()[:hi-lo], c.v.I16()[lo:hi])
	case vector.I32:
		copy(dst.I32()[:hi-lo], c.v.I32()[lo:hi])
	case vector.I64:
		copy(dst.I64()[:hi-lo], c.v.I64()[lo:hi])
	case vector.F64:
		copy(dst.F64()[:hi-lo], c.v.F64()[lo:hi])
	case vector.Str:
		copy(dst.Str()[:hi-lo], c.v.Str()[lo:hi])
	}
}

func (c *flatColumn) Gather(lo int, sel []int32, dst *vector.Vector) {
	switch c.v.Type() {
	case vector.I16:
		src, d := c.v.I16(), dst.I16()
		for _, p := range sel {
			d[p] = src[lo+int(p)]
		}
	case vector.I32:
		src, d := c.v.I32(), dst.I32()
		for _, p := range sel {
			d[p] = src[lo+int(p)]
		}
	case vector.I64:
		src, d := c.v.I64(), dst.I64()
		for _, p := range sel {
			d[p] = src[lo+int(p)]
		}
	case vector.F64:
		src, d := c.v.F64(), dst.F64()
		for _, p := range sel {
			d[p] = src[lo+int(p)]
		}
	case vector.Str:
		src, d := c.v.Str(), dst.Str()
		for _, p := range sel {
			d[p] = src[lo+int(p)]
		}
	}
}

// SelectConst reports false: flat columns have no compressed form to
// operate on; callers decode (trivially) and compare.
func (c *flatColumn) SelectConst(lo, hi int, op string, rhs *vector.Vector, sel []int32, out []int32) (int, bool) {
	return 0, false
}
