package vector

// Sel is a selection vector: the positions of qualifying tuples within a
// batch, in ascending order. A nil Sel means "all tuples qualify".
type Sel = []int32

// Col describes one column of a batch schema.
type Col struct {
	Name string
	Type Type
}

// Schema is an ordered set of named, typed columns.
type Schema []Col

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndexOf returns the position of the named column and panics if absent.
func (s Schema) MustIndexOf(name string) int {
	if i := s.IndexOf(name); i >= 0 {
		return i
	}
	panic("vector: schema has no column " + name)
}

// Batch is a horizontal slice of a relation: N tuples across a set of
// column vectors, with an optional selection vector marking the live subset.
type Batch struct {
	N    int       // total tuples in the vectors (selected or not)
	Sel  Sel       // live positions; nil means all N are live
	Cols []*Vector // one vector per schema column
}

// Live returns the number of live (selected) tuples.
func (b *Batch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Selectivity returns the fraction of live tuples, in [0,1]. An empty batch
// reports 1.
func (b *Batch) Selectivity() float64 {
	if b.N == 0 {
		return 1
	}
	return float64(b.Live()) / float64(b.N)
}

// NewBatch builds a batch over the given columns; all columns must have the
// same length.
func NewBatch(cols ...*Vector) *Batch {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != n {
				panic("vector.NewBatch: column length mismatch")
			}
		}
	}
	return &Batch{N: n, Cols: cols}
}

// Compact materializes the selection: it copies the live tuples of every
// column to the front and clears Sel. It allocates fresh vectors; use
// CompactInto to reuse a destination batch across a drain loop.
func (b *Batch) Compact() *Batch {
	if b.Sel == nil {
		return b
	}
	return b.CompactInto(nil)
}

// CompactInto compacts b into dst, reusing dst's vectors whenever their type
// matches and their capacity holds the live count — the reusable-destination
// variant of Compact for drain loops that process one compacted batch at a
// time instead of retaining them all. A nil dst (or one with missing /
// undersized / wrongly-typed columns) allocates what it needs. It returns
// the destination batch; b itself is never modified. When b carries no
// selection the copy is still performed, so the returned batch never aliases
// b's vectors.
func (b *Batch) CompactInto(dst *Batch) *Batch {
	k := b.Live()
	if dst == nil {
		dst = &Batch{}
	}
	dst.N = k
	dst.Sel = nil
	if len(dst.Cols) != len(b.Cols) {
		dst.Cols = make([]*Vector, len(b.Cols))
	}
	for ci, c := range b.Cols {
		nc := dst.Cols[ci]
		if nc == nil || nc.Type() != c.Type() || nc.Cap() < k {
			nc = New(c.Type(), k)
			dst.Cols[ci] = nc
		}
		nc.SetLen(k)
		if b.Sel == nil {
			switch c.Type() {
			case I16:
				copy(nc.I16()[:k], c.I16()[:k])
			case I32:
				copy(nc.I32()[:k], c.I32()[:k])
			case I64:
				copy(nc.I64()[:k], c.I64()[:k])
			case F64:
				copy(nc.F64()[:k], c.F64()[:k])
			case Str:
				copy(nc.Str()[:k], c.Str()[:k])
			}
			continue
		}
		switch c.Type() {
		case I16:
			src, d := c.I16(), nc.I16()
			for j, i := range b.Sel {
				d[j] = src[i]
			}
		case I32:
			src, d := c.I32(), nc.I32()
			for j, i := range b.Sel {
				d[j] = src[i]
			}
		case I64:
			src, d := c.I64(), nc.I64()
			for j, i := range b.Sel {
				d[j] = src[i]
			}
		case F64:
			src, d := c.F64(), nc.F64()
			for j, i := range b.Sel {
				d[j] = src[i]
			}
		case Str:
			src, d := c.Str(), nc.Str()
			for j, i := range b.Sel {
				d[j] = src[i]
			}
		}
	}
	return dst
}
