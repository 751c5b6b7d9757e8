package engine

import (
	"math"
	"sort"

	"microadapt/internal/core"
	"microadapt/internal/vector"
)

// SortKey describes one ordering column.
type SortKey struct {
	Col  int
	Desc bool
}

// Asc sorts ascending on col.
func Asc(col int) SortKey { return SortKey{Col: col} }

// Desc sorts descending on col.
func Desc(col int) SortKey { return SortKey{Col: col, Desc: true} }

// Sort is the blocking order-by operator: it materializes its input, sorts
// by the keys and streams the result. Sorting is control logic and costs
// operator cycles (n log n), not primitive cycles.
type Sort struct {
	sess  *core.Session
	child Operator
	keys  []SortKey
	limit int // 0 = no limit

	out  *Table
	scan *Scan
}

// NewSort builds a Sort.
func NewSort(sess *core.Session, child Operator, keys ...SortKey) *Sort {
	return &Sort{sess: sess, child: child, keys: keys}
}

// NewTopN builds a Sort that keeps only the first n output rows.
func NewTopN(sess *core.Session, child Operator, n int, keys ...SortKey) *Sort {
	s := NewSort(sess, child, keys...)
	s.limit = n
	return s
}

// Schema implements Operator.
func (s *Sort) Schema() vector.Schema { return s.child.Schema() }

// Open implements Operator.
func (s *Sort) Open() error {
	tab, err := Materialize(s.child)
	if err != nil {
		return err
	}
	n := tab.Rows()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := int(perm[a]), int(perm[b])
		for _, k := range s.keys {
			c := compareAt(tab.Cols[k.Col], ia, ib)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if n > 1 {
		chargeOp(s.sess, 3*float64(n)*math.Log2(float64(n)))
	}
	if s.limit > 0 && s.limit < n {
		perm = perm[:s.limit]
	}
	// Apply the permutation.
	cols := make([]*vector.Vector, len(tab.Cols))
	for ci, src := range tab.Cols {
		dst := vector.New(src.Type(), len(perm))
		dst.SetLen(len(perm))
		for j, i := range perm {
			copyAt(src, dst, int(i), j)
		}
		cols[ci] = dst
	}
	s.out = NewTable("sorted", tab.Sch, cols)
	s.scan = NewScan(s.sess, s.out)
	return s.scan.Open()
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) { return s.scan.Next() }

// Close implements Operator.
func (s *Sort) Close() {}

func compareAt(v *vector.Vector, a, b int) int {
	switch v.Type() {
	case vector.F64:
		x, y := v.F64()[a], v.F64()[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case vector.Str:
		x, y := v.Str()[a], v.Str()[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		x, y := v.GetI64(a), v.GetI64(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
}

func copyAt(src, dst *vector.Vector, from, to int) {
	switch src.Type() {
	case vector.I16:
		dst.I16()[to] = src.I16()[from]
	case vector.I32:
		dst.I32()[to] = src.I32()[from]
	case vector.I64:
		dst.I64()[to] = src.I64()[from]
	case vector.F64:
		dst.F64()[to] = src.F64()[from]
	case vector.Str:
		dst.Str()[to] = src.Str()[from]
	}
}

// Limit truncates its child's stream to n live tuples.
type Limit struct {
	sess  *core.Session
	child Operator
	n     int
	seen  int

	out vector.Batch // header of the truncated last batch; the child's is never modified
}

// NewLimit builds a Limit.
func NewLimit(sess *core.Session, child Operator, n int) *Limit {
	return &Limit{sess: sess, child: child, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() vector.Schema { return l.child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.child.Open()
}

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	live := b.Live()
	if l.seen+live > l.n {
		want := l.n - l.seen
		l.out = vector.Batch{N: b.N, Cols: b.Cols}
		if b.Sel != nil {
			l.out.Sel = b.Sel[:want]
		} else {
			// Once per stream: the batch that crosses the limit is the last.
			l.out.Sel = make([]int32, want)
			for i := range l.out.Sel {
				l.out.Sel[i] = int32(i)
			}
		}
		b, live = &l.out, want
	}
	l.seen += live
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() { l.child.Close() }
