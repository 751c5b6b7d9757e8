package engine

import (
	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// MergeJoin joins two inputs already sorted ascending on their integer key
// columns (TPC-H lineitem and orders are clustered on orderkey, so
// orders-lineitem joins merge without sorting, as in the paper's Q7/Q12
// plans). Both inputs are materialized; the kernel is the adaptive
// mergejoin primitive of Figures 4(c) and 5, and output columns are
// materialized through fetch primitives — the exact pattern behind
// Figure 4(d)'s map_fetch_uidx_col_str_col.
type MergeJoin struct {
	sess     *core.Session
	left     Operator
	right    Operator
	label    string
	leftKey  string
	rightKey string
	// Output columns: names prefixed l. / r. pick the side.
	leftOut  []string
	rightOut []string

	sch       vector.Schema
	ltab      *Table
	rtab      *Table
	state     *primitive.MergeState
	joinInst  *core.Instance
	fetchInst []*core.Instance
	fetchSide []bool // true = left
	fetchIdx  []int
	done      bool

	out        vector.Batch  // the batch every Next re-fills
	lIdx, rIdx vector.Vector // windows of the kernel's match positions
	call       core.Call     // reused for every primitive call
	in         [2]*vector.Vector
}

// NewMergeJoin builds a merge join emitting leftOut columns from the left
// input and rightOut columns from the right input.
func NewMergeJoin(sess *core.Session, left, right Operator, label, leftKey, rightKey string, leftOut, rightOut []string) *MergeJoin {
	return &MergeJoin{
		sess: sess, left: left, right: right, label: label,
		leftKey: leftKey, rightKey: rightKey, leftOut: leftOut, rightOut: rightOut,
	}
}

// Schema implements Operator.
func (m *MergeJoin) Schema() vector.Schema {
	if m.sch != nil {
		return m.sch
	}
	ls, rs := m.left.Schema(), m.right.Schema()
	for _, n := range m.leftOut {
		m.sch = append(m.sch, ls[ls.MustIndexOf(n)])
	}
	for _, n := range m.rightOut {
		m.sch = append(m.sch, rs[rs.MustIndexOf(n)])
	}
	return m.sch
}

// Open implements Operator: materializes both inputs and sets up cursors.
func (m *MergeJoin) Open() error {
	var err error
	if m.ltab, err = Materialize(m.left); err != nil {
		return err
	}
	if m.rtab, err = Materialize(m.right); err != nil {
		return err
	}
	lkeys := make([]int64, m.ltab.Rows())
	rkeys := make([]int64, m.rtab.Rows())
	primitive.WidenToI64(m.ltab.Col(m.leftKey), nil, m.ltab.Rows(), vector.FromI64(lkeys))
	primitive.WidenToI64(m.rtab.Col(m.rightKey), nil, m.rtab.Rows(), vector.FromI64(rkeys))
	m.state = primitive.NewMergeState(lkeys, rkeys)
	vs := m.sess.VectorSize
	m.state.LOut = make([]int32, vs)
	m.state.ROut = make([]int32, vs)
	m.joinInst = m.sess.Instance("mergejoin_slng_col_slng_col", m.label+"/mergejoin_slng_col_slng_col#0")

	for i, n := range m.leftOut {
		idx := m.ltab.Sch.MustIndexOf(n)
		sig := primitive.FetchSig(m.ltab.Sch[idx].Type)
		m.fetchInst = append(m.fetchInst, m.sess.Instance(sig, labelf("%s/%s#L%d", m.label, sig, i)))
		m.fetchSide = append(m.fetchSide, true)
		m.fetchIdx = append(m.fetchIdx, idx)
	}
	for i, n := range m.rightOut {
		idx := m.rtab.Sch.MustIndexOf(n)
		sig := primitive.FetchSig(m.rtab.Sch[idx].Type)
		m.fetchInst = append(m.fetchInst, m.sess.Instance(sig, labelf("%s/%s#R%d", m.label, sig, i)))
		m.fetchSide = append(m.fetchSide, false)
		m.fetchIdx = append(m.fetchIdx, idx)
	}
	m.out.Cols = make([]*vector.Vector, len(m.fetchInst))
	m.done = false
	return nil
}

// Next implements Operator.
func (m *MergeJoin) Next() (*vector.Batch, error) {
	if m.done {
		return nil, nil
	}
	vs := m.sess.VectorSize
	call := &m.call
	*call = core.Call{N: vs, Aux: m.state}
	produced := m.joinInst.Run(m.sess.Ctx, call)
	if m.state.Done() {
		m.done = true
	}
	if produced == 0 {
		if m.done {
			return nil, nil
		}
		m.out.N = 0
		return &m.out, nil
	}

	m.lIdx = *vector.FromI32(m.state.LOut[:produced])
	m.rIdx = *vector.FromI32(m.state.ROut[:produced])
	for i := range m.fetchInst {
		srcTab, idxVec := m.rtab, &m.rIdx
		if m.fetchSide[i] {
			srcTab, idxVec = m.ltab, &m.lIdx
		}
		src := srcTab.Cols[m.fetchIdx[i]]
		m.out.Cols[i] = vector.Reuse(m.out.Cols[i], src.Type(), produced)
		m.in[0], m.in[1] = idxVec, src
		*call = core.Call{N: produced, Cap: vs, In: m.in[:], Res: m.out.Cols[i]}
		m.fetchInst[i].Run(m.sess.Ctx, call)
	}
	m.out.N = produced
	chargeOp(m.sess, perBatchOverhead)
	return &m.out, nil
}

// Close implements Operator.
func (m *MergeJoin) Close() {}
