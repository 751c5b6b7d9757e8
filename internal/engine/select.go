package engine

import (
	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// Pred is one conjunct of a Select: column <op> constant, column <op>
// column, a LIKE pattern, or an IN list. Each conjunct maps to one
// selection-primitive instance.
type Pred struct {
	Col    int    // left column index
	Op     string // "<", "<=", ">", ">=", "==", "!=", "like", "notlike", "in"
	RHSCol int    // right column index for col-col compares; -1 otherwise
	I64    int64  // constant for integer columns (also dates via int32)
	F64    float64
	Str    string   // constant for string compares / like pattern
	Set    []string // values for "in" over string columns
	SetI32 []int32  // values for "in" over sint columns
}

// CmpVal builds a column-vs-constant comparison predicate. value must match
// the column type: int for integer columns, float64, or string.
func CmpVal(col int, op string, value any) Pred {
	p := Pred{Col: col, Op: op, RHSCol: -1}
	switch v := value.(type) {
	case int:
		p.I64 = int64(v)
	case int32:
		p.I64 = int64(v)
	case int64:
		p.I64 = v
	case float64:
		p.F64 = v
	case string:
		p.Str = v
	default:
		panic("engine.CmpVal: unsupported constant type")
	}
	return p
}

// CmpCol builds a column-vs-column comparison predicate.
func CmpCol(col int, op string, rhs int) Pred { return Pred{Col: col, Op: op, RHSCol: rhs} }

// Like builds a LIKE predicate (patterns of literal segments separated by
// '%'); Not negates it.
func Like(col int, pattern string) Pred { return Pred{Col: col, Op: "like", RHSCol: -1, Str: pattern} }

// NotLike builds a NOT LIKE predicate.
func NotLike(col int, pattern string) Pred {
	return Pred{Col: col, Op: "notlike", RHSCol: -1, Str: pattern}
}

// InStr builds an IN-list predicate over a string column.
func InStr(col int, values ...string) Pred { return Pred{Col: col, Op: "in", RHSCol: -1, Set: values} }

// InI32 builds an IN-list predicate over a sint column.
func InI32(col int, values ...int32) Pred {
	return Pred{Col: col, Op: "in", RHSCol: -1, SetI32: values}
}

// Select filters its child's batches through conjunctive predicates,
// producing/refining selection vectors via selection primitives —
// including empty-selection batches, so downstream primitive instances
// keep their call cadence (the tail of Figure 2).
type Select struct {
	sess  *core.Session
	child Operator
	preds []Pred
	label string

	insts []*core.Instance
	rhs   []*vector.Vector // constant vectors per pred
	selA  []int32
	selB  []int32

	out  vector.Batch // the batch every Next re-fills; out.Sel aliases selA/selB
	call core.Call    // reused for every primitive call
	in   [2]*vector.Vector
}

// NewSelect builds a Select. label prefixes the primitive-instance names.
func NewSelect(sess *core.Session, child Operator, label string, preds ...Pred) *Select {
	return &Select{sess: sess, child: child, preds: preds, label: label}
}

// Schema implements Operator.
func (s *Select) Schema() vector.Schema { return s.child.Schema() }

// Open implements Operator.
func (s *Select) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	sch := s.child.Schema()
	s.selA = make([]int32, s.sess.VectorSize)
	s.selB = make([]int32, s.sess.VectorSize)
	s.insts = make([]*core.Instance, len(s.preds))
	s.rhs = make([]*vector.Vector, len(s.preds))
	for i, p := range s.preds {
		t := sch[p.Col].Type
		var sig string
		switch p.Op {
		case "like", "notlike":
			sig = "select_" + p.Op + "_str_col_str_val"
			s.rhs[i] = vector.ConstStr(p.Str)
		case "in":
			if t == vector.Str {
				sig = "select_in_str_col"
				s.rhs[i] = vector.FromStr(p.Set)
			} else {
				sig = "select_in_sint_col"
				s.rhs[i] = vector.FromI32(p.SetI32)
			}
		default:
			if p.RHSCol >= 0 {
				sig = primitive.SelSig(p.Op, t, true)
			} else {
				sig = primitive.SelSig(p.Op, t, false)
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
			}
		}
		s.insts[i] = s.sess.Instance(sig, labelf("%s/%s#%d", s.label, sig, i))
	}
	return nil
}

// Next implements Operator. Empty inputs skip the remaining predicates
// entirely — as in Vectorwise, primitives are never called on empty
// selection vectors (learning from zero-tuple calls is meaningless).
func (s *Select) Next() (*vector.Batch, error) {
	b, err := s.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if b.Live() == 0 {
		chargeOp(s.sess, perBatchOverhead)
		s.out = vector.Batch{N: b.N, Sel: s.selA[:0], Cols: b.Cols}
		return &s.out, nil
	}
	if b.N > len(s.selA) {
		// A child may hand over batches wider than this session's vector
		// size (e.g. a materialized table streamed by another session);
		// selection primitives write up to b.N positions into SelOut, so
		// grow the scratch instead of corrupting memory past it.
		s.selA = make([]int32, b.N)
		s.selB = make([]int32, b.N)
	}
	cur, spare := s.selA, s.selB
	sel := b.Sel
	for i, p := range s.preds {
		if sel != nil && len(sel) == 0 {
			break
		}
		s.in[0], s.in[1] = b.Cols[p.Col], s.rhs[i]
		if p.RHSCol >= 0 {
			s.in[1] = b.Cols[p.RHSCol]
		}
		call := &s.call
		*call = core.Call{N: b.N, Sel: sel, In: s.in[:], SelOut: cur}
		// Per-batch context: the incoming selection density — what earlier
		// conjuncts (or the child) left alive — known before the call runs,
		// unlike this predicate's own selectivity.
		call.Feat = core.Features{Valid: true, Selectivity: call.Density()}
		k := s.insts[i].Run(s.sess.Ctx, call)
		sel = cur[:k]
		cur, spare = spare, cur
	}
	chargeOp(s.sess, perBatchOverhead)
	s.out = vector.Batch{N: b.N, Sel: sel, Cols: b.Cols}
	return &s.out, nil
}

// Close implements Operator.
func (s *Select) Close() { s.child.Close() }
