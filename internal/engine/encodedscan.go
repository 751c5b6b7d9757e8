package engine

import (
	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/storage"
	"microadapt/internal/vector"
)

// EncodeTable analyzes t's columns and attaches the compressed-resident
// form the encoded scan operates from; already-encoded tables are returned
// as-is (encoding is idempotent). The flat vectors stay as the load copy —
// joins, delivery steps and golden comparisons still read them — while
// every plan scan of the table goes through the encoded form and its
// adaptive decompression flavors.
func EncodeTable(t *Table) *storage.EncodedTable {
	if t.Enc == nil {
		t.Enc = storage.Encode(t.Name, t.Sch, t.Cols)
	}
	return t.Enc
}

// PushdownSplit splits a Select's conjuncts into the maximal prefix an
// encoded scan of t's named columns (all when empty) can evaluate itself —
// column-vs-constant comparisons over non-flat encodings — and the rest,
// which stay in the Select above the scan. Conjunct order is preserved, so
// pushing the prefix changes where the selection vector is produced but
// never what it contains.
func PushdownSplit(t *Table, cols []string, preds []Pred) (push, rest []Pred) {
	if t.Enc == nil {
		return nil, preds
	}
	colIdx := scanColumnIndexes(t, cols)
	for i, p := range preds {
		if !pushablePred(t, colIdx, p) {
			return preds[:i], preds[i:]
		}
	}
	return preds, nil
}

// pushablePred reports whether one conjunct can run inside the encoded scan.
func pushablePred(t *Table, colIdx []int, p Pred) bool {
	switch p.Op {
	case "<", "<=", ">", ">=", "==", "!=":
	default:
		return false
	}
	if p.RHSCol >= 0 || p.Col < 0 || p.Col >= len(colIdx) {
		return false
	}
	// Flat columns gain nothing from the decompression family; their
	// predicates keep the ordinary selection primitives (and their wider
	// branching/compiler flavor axes).
	return t.Enc.Cols[colIdx[p.Col]].Encoding() != storage.Flat
}

// scanColumnIndexes resolves scan output positions to table column indexes.
func scanColumnIndexes(t *Table, cols []string) []int {
	if len(cols) == 0 {
		out := make([]int, len(t.Sch))
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, len(cols))
	for i, name := range cols {
		out[i] = t.Sch.MustIndexOf(name)
	}
	return out
}

// EncodedScan streams a compressed-resident table — or a contiguous row
// range of it — in vector-size batches, doing all decompression through
// adaptive primitive instances: one scan_decompress instance per non-flat
// output column (eager vs lazy flavors) and, when predicates are pushed
// down, one selenc instance per conjunct (decode vs operate-on-compressed
// flavors). Flat columns stream as zero-copy slices exactly like Scan.
type EncodedScan struct {
	sess   *core.Session
	table  *Table
	label  string // plan label prefixing decompress-instance names
	cols   []int
	sch    vector.Schema
	lo, hi int
	pos    int

	pushLabel string
	preds     []Pred

	decInsts []*core.Instance // per output column; nil for flat columns
	selInsts []*core.Instance // per pushed-down conjunct
	rhs      []*vector.Vector // constant vectors per conjunct
	encPred  []storage.EncodedColumn
	scratch  []*vector.Vector // per-conjunct decode scratch
	selA     []int32
	selB     []int32

	out   vector.Batch             // the batch every Next re-fills; out.Sel aliases selA/selB
	views []vector.Vector          // windows of the flat output columns
	call  core.Call                // reused for every primitive call
	args  primitive.DecompressArgs // reused Call.Aux
}

// NewEncodedScan builds an encoded scan of the named columns (all when
// empty). label is the plan-position prefix of the scan's primitive
// instances; the table must be resident in compressed form (EncodeTable).
func NewEncodedScan(sess *core.Session, t *Table, label string, cols ...string) *EncodedScan {
	return NewEncodedRangeScan(sess, t, label, 0, t.Rows(), cols...)
}

// NewEncodedRangeScan builds an encoded scan restricted to rows [lo, hi) —
// the morsel of one pipeline partition. Bounds are clamped to the table.
func NewEncodedRangeScan(sess *core.Session, t *Table, label string, lo, hi int, cols ...string) *EncodedScan {
	if t.Enc == nil {
		panic("engine.NewEncodedRangeScan: table " + t.Name + " has no encoded form (EncodeTable)")
	}
	if lo < 0 {
		lo = 0
	}
	if hi > t.Rows() {
		hi = t.Rows()
	}
	if hi < lo {
		hi = lo
	}
	s := &EncodedScan{sess: sess, table: t, label: label, lo: lo, hi: hi, pos: lo}
	s.cols = scanColumnIndexes(t, cols)
	for _, ci := range s.cols {
		s.sch = append(s.sch, t.Sch[ci])
	}
	return s
}

// Pushdown attaches predicates the scan evaluates itself, in conjunct
// order, before decoding the output columns — which is what gives the lazy
// decompression flavor a selection vector to exploit. label prefixes the
// selenc instance names; pass the originating Select node's label so the
// instances keep that plan position. Predicates must satisfy PushdownSplit.
func (s *EncodedScan) Pushdown(label string, preds ...Pred) *EncodedScan {
	s.pushLabel = label
	s.preds = preds
	return s
}

// Schema implements Operator.
func (s *EncodedScan) Schema() vector.Schema { return s.sch }

// Open implements Operator.
func (s *EncodedScan) Open() error {
	s.pos = s.lo
	s.selA = make([]int32, s.sess.VectorSize)
	s.selB = make([]int32, s.sess.VectorSize)
	s.selInsts = make([]*core.Instance, len(s.preds))
	s.rhs = make([]*vector.Vector, len(s.preds))
	s.encPred = make([]storage.EncodedColumn, len(s.preds))
	s.scratch = make([]*vector.Vector, len(s.preds))
	for i, p := range s.preds {
		t := s.sch[p.Col].Type
		s.encPred[i] = s.table.Enc.Cols[s.cols[p.Col]]
		switch t {
		case vector.I16:
			s.rhs[i] = vector.ConstI16(int16(p.I64))
		case vector.I32:
			s.rhs[i] = vector.ConstI32(int32(p.I64))
		case vector.I64:
			s.rhs[i] = vector.ConstI64(p.I64)
		case vector.F64:
			s.rhs[i] = vector.ConstF64(p.F64)
		case vector.Str:
			s.rhs[i] = vector.ConstStr(p.Str)
		}
		s.scratch[i] = vector.New(t, s.sess.VectorSize)
		sig := primitive.EncSelSig(p.Op, t)
		s.selInsts[i] = s.sess.Instance(sig, labelf("%s/%s#%d", s.pushLabel, sig, i))
	}
	s.decInsts = make([]*core.Instance, len(s.cols))
	s.views = make([]vector.Vector, len(s.cols))
	s.out.Cols = make([]*vector.Vector, len(s.cols))
	for j, ci := range s.cols {
		enc := s.table.Enc.Cols[ci]
		if storage.Unwrap(enc) != nil {
			s.out.Cols[j] = &s.views[j] // flat columns stream zero-copy, no decode instance
			continue
		}
		s.out.Cols[j] = vector.New(enc.Type(), s.sess.VectorSize)
		sig := primitive.DecompressSig(enc.Type())
		s.decInsts[j] = s.sess.Instance(sig, labelf("%s/%s#%d", s.label, sig, j))
	}
	return nil
}

// Next implements Operator. Pushed-down conjuncts run first and refine the
// batch's selection vector; output columns then decode under that selection
// (the eager flavor ignores it, the lazy flavor gathers only the
// survivors). Fully filtered batches still flow with an empty selection so
// downstream instances keep their call cadence, exactly like Select.
func (s *EncodedScan) Next() (*vector.Batch, error) {
	if s.pos >= s.hi {
		return nil, nil
	}
	lo := s.pos
	n := s.sess.VectorSize
	if lo+n > s.hi {
		n = s.hi - lo
	}
	s.pos = lo + n

	var sel vector.Sel
	cur, spare := s.selA, s.selB
	for i := range s.preds {
		if sel != nil && len(sel) == 0 {
			break
		}
		s.args = primitive.DecompressArgs{Col: s.encPred[i], Lo: lo, Scratch: s.scratch[i]}
		call := &s.call
		*call = core.Call{N: n, Sel: sel, In: s.rhs[i : i+1], SelOut: cur, Aux: &s.args}
		call.Feat = core.Features{Valid: true, Selectivity: call.Density(),
			Encoding: s.encPred[i].Encoding().String()}
		k := s.selInsts[i].Run(s.sess.Ctx, call)
		sel = cur[:k]
		cur, spare = spare, cur
	}

	for j, ci := range s.cols {
		enc := s.table.Enc.Cols[ci]
		if fv := storage.Unwrap(enc); fv != nil {
			fv.SliceInto(&s.views[j], lo, lo+n)
			continue
		}
		res := s.out.Cols[j]
		res.SetLen(n)
		if sel == nil || len(sel) > 0 {
			s.args = primitive.DecompressArgs{Col: enc, Lo: lo}
			call := &s.call
			*call = core.Call{N: n, Sel: sel, Res: res, Aux: &s.args}
			call.Feat = core.Features{Valid: true, Selectivity: call.Density(),
				Encoding: enc.Encoding().String()}
			s.decInsts[j].Run(s.sess.Ctx, call)
		}
	}
	s.out.N, s.out.Sel = n, sel
	chargeOp(s.sess, perBatchOverhead)
	return &s.out, nil
}

// Close implements Operator.
func (s *EncodedScan) Close() {}
