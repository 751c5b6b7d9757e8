package storage

import (
	"math/bits"

	"microadapt/internal/vector"
)

// bitPackColumn is frame-of-reference bit packing for integer columns:
// each value is stored as (value - base) in width bits, packed contiguously
// into 64-bit words. A TPC-H quantity column (1..50) packs into 6 bits per
// row instead of 32.
type bitPackColumn struct {
	typ   vector.Type
	n     int
	base  int64
	width uint // bits per value; 0 means every value equals base
	words []uint64
}

// newBitPackColumn encodes an integer vector, or reports false when the
// value range needs (almost) as many bits as the flat type — packing then
// saves nothing.
func newBitPackColumn(v *vector.Vector) (EncodedColumn, bool) {
	t := v.Type()
	var flatBits uint
	switch t {
	case vector.I16:
		flatBits = 16
	case vector.I32:
		flatBits = 32
	case vector.I64:
		flatBits = 64
	default:
		return nil, false
	}
	n := v.Len()
	c := &bitPackColumn{typ: t, n: n}
	if n == 0 {
		return c, true
	}
	min, max := v.GetI64(0), v.GetI64(0)
	for i := 1; i < n; i++ {
		x := v.GetI64(i)
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max-min < 0 {
		return nil, false // range exceeds int64: cannot frame-of-reference
	}
	width := uint(bits.Len64(uint64(max - min)))
	if width >= flatBits {
		return nil, false
	}
	c.base = min
	c.width = width
	if width > 0 {
		c.words = make([]uint64, (n*int(width)+63)/64)
		for i := 0; i < n; i++ {
			c.put(i, uint64(v.GetI64(i)-min))
		}
	}
	return c, true
}

func (c *bitPackColumn) put(i int, val uint64) {
	bitPos := i * int(c.width)
	w, off := bitPos/64, uint(bitPos%64)
	c.words[w] |= val << off
	if off+c.width > 64 {
		c.words[w+1] |= val >> (64 - off)
	}
}

func (c *bitPackColumn) get(i int) int64 {
	if c.width == 0 {
		return c.base
	}
	bitPos := i * int(c.width)
	w, off := bitPos/64, uint(bitPos%64)
	val := c.words[w] >> off
	if off+c.width > 64 {
		val |= c.words[w+1] << (64 - off)
	}
	val &= 1<<c.width - 1
	return c.base + int64(val)
}

func (c *bitPackColumn) Encoding() Encoding { return BitPack }
func (c *bitPackColumn) Type() vector.Type  { return c.typ }
func (c *bitPackColumn) Len() int           { return c.n }
func (c *bitPackColumn) EncodedBytes() int  { return 8*len(c.words) + 16 }
func (c *bitPackColumn) Units() int         { return len(c.words) }

func (c *bitPackColumn) DecodeRange(lo, hi int, dst *vector.Vector) {
	switch c.typ {
	case vector.I16:
		d := dst.I16()
		for i := lo; i < hi; i++ {
			d[i-lo] = int16(c.get(i))
		}
	case vector.I32:
		d := dst.I32()
		for i := lo; i < hi; i++ {
			d[i-lo] = int32(c.get(i))
		}
	case vector.I64:
		d := dst.I64()
		for i := lo; i < hi; i++ {
			d[i-lo] = c.get(i)
		}
	}
}

func (c *bitPackColumn) Gather(lo int, sel []int32, dst *vector.Vector) {
	switch c.typ {
	case vector.I16:
		d := dst.I16()
		for _, p := range sel {
			d[p] = int16(c.get(lo + int(p)))
		}
	case vector.I32:
		d := dst.I32()
		for _, p := range sel {
			d[p] = int32(c.get(lo + int(p)))
		}
	case vector.I64:
		d := dst.I64()
		for _, p := range sel {
			d[p] = c.get(lo + int(p))
		}
	}
}

// SelectConst reports false: a packed value must be unpacked to compare, so
// there is no compressed-form shortcut; callers decode and compare.
func (c *bitPackColumn) SelectConst(lo, hi int, op string, rhs *vector.Vector, sel []int32, out []int32) (int, bool) {
	return 0, false
}
