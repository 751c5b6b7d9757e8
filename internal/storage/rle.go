package storage

import (
	"sort"

	"microadapt/internal/vector"
)

// rleColumn is run-length encoding: values holds one value per run, ends
// the ascending exclusive end offset of each run (ends[len-1] == Len).
// TPC-H's date-clustered fact tables are the sweet spot: a predicate over
// l_shipdate touches thousands of rows per run, so operating on the runs
// themselves beats any per-row plan.
type rleColumn[T elem] struct {
	typ    vector.Type
	values []T
	ends   []int32
}

// newRLEColumn encodes v. Every vector is RLE-encodable (worst case: one
// run per row); whether it is worth it is the analyzer's call.
func newRLEColumn[T elem](v *vector.Vector) EncodedColumn {
	src := typedSlice[T](v)[:v.Len()]
	c := &rleColumn[T]{typ: vecTypeOf[T]()}
	for i := 0; i < len(src); i++ {
		// Runs group by *bit* equality for floats: every NaN payload forms
		// its own run and +0.0 never merges with -0.0, so DecodeRange
		// reproduces the column bit-exactly (values are copied, never
		// recomputed). SelectConst still compares run values with ordinary
		// operators, matching flat-compare semantics.
		if len(c.values) == 0 || !sameBits(src[i], c.values[len(c.values)-1]) {
			c.values = append(c.values, src[i])
			c.ends = append(c.ends, int32(i+1))
		} else {
			c.ends[len(c.ends)-1] = int32(i + 1)
		}
	}
	return c
}

func (c *rleColumn[T]) Encoding() Encoding { return RLE }
func (c *rleColumn[T]) Type() vector.Type  { return c.typ }
func (c *rleColumn[T]) Units() int         { return len(c.values) }

func (c *rleColumn[T]) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return int(c.ends[len(c.ends)-1])
}

func (c *rleColumn[T]) EncodedBytes() int {
	return len(c.values)*c.typ.Width() + 4*len(c.ends)
}

// findRun returns the index of the run containing row pos.
func (c *rleColumn[T]) findRun(pos int) int {
	return sort.Search(len(c.ends), func(i int) bool { return int(c.ends[i]) > pos })
}

func (c *rleColumn[T]) DecodeRange(lo, hi int, dst *vector.Vector) {
	d := typedSlice[T](dst)
	r := c.findRun(lo)
	for i := lo; i < hi; {
		end := int(c.ends[r])
		if end > hi {
			end = hi
		}
		val := c.values[r]
		for ; i < end; i++ {
			d[i-lo] = val
		}
		r++
	}
}

func (c *rleColumn[T]) Gather(lo int, sel []int32, dst *vector.Vector) {
	if len(sel) == 0 {
		return
	}
	d := typedSlice[T](dst)
	// sel is ascending, so one forward walk over the runs serves every
	// position: a binary search for the first, then linear advances.
	r := c.findRun(lo + int(sel[0]))
	for _, p := range sel {
		row := lo + int(p)
		for int(c.ends[r]) <= row {
			r++
		}
		d[p] = c.values[r]
	}
}

// SelectConst evaluates the predicate once per run and emits whole runs of
// qualifying positions — O(runs + selected) instead of O(rows).
func (c *rleColumn[T]) SelectConst(lo, hi int, op string, rhs *vector.Vector, sel []int32, out []int32) (int, bool) {
	val := typedSlice[T](rhs)[0]
	k := 0
	if sel != nil {
		if len(sel) == 0 {
			return 0, true
		}
		r := c.findRun(lo + int(sel[0]))
		lastR, lastOK := -1, false
		for _, p := range sel {
			row := lo + int(p)
			for int(c.ends[r]) <= row {
				r++
			}
			if r != lastR {
				lastR, lastOK = r, compare(op, c.values[r], val)
			}
			if lastOK {
				out[k] = p
				k++
			}
		}
		return k, true
	}
	r := c.findRun(lo)
	for i := lo; i < hi; {
		end := int(c.ends[r])
		if end > hi {
			end = hi
		}
		if compare(op, c.values[r], val) {
			for ; i < end; i++ {
				out[k] = int32(i - lo)
				k++
			}
		} else {
			i = end
		}
		r++
	}
	return k, true
}
