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
