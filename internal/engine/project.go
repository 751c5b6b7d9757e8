package engine

import (
	"microadapt/internal/core"
	"microadapt/internal/expr"
	"microadapt/internal/vector"
)

// ProjExpr is one output column of a Project: an expression plus its name.
type ProjExpr struct {
	Name string
	Expr expr.Node
}

// Keep passes an input column through unchanged.
func Keep(name string, idx int) ProjExpr { return ProjExpr{Name: name, Expr: &expr.Col{Idx: idx}} }

// Project computes expressions as new columns (the non-duplicate-
// eliminating Projection operator of §1). Each expression tree is
// evaluated by the expression evaluator, which is where flavor choice
// happens for map primitives.
type Project struct {
	sess  *core.Session
	child Operator
	exprs []ProjExpr
	label string

	sch vector.Schema
	ev  *expr.Evaluator

	out   vector.Batch     // the batch every Next re-fills
	bcast []*vector.Vector // per-expression broadcast of a constant result
	empty []*vector.Vector // zero-length columns emitted for empty batches, built on the first
}

// NewProject builds a Project over child producing exactly exprs.
func NewProject(sess *core.Session, child Operator, label string, exprs ...ProjExpr) *Project {
	return &Project{sess: sess, child: child, exprs: exprs, label: label}
}

// Schema implements Operator.
func (p *Project) Schema() vector.Schema {
	if p.sch == nil {
		in := p.child.Schema()
		for _, e := range p.exprs {
			p.sch = append(p.sch, vector.Col{Name: e.Name, Type: e.Expr.Type(in)})
		}
	}
	return p.sch
}

// Open implements Operator.
func (p *Project) Open() error {
	if err := p.child.Open(); err != nil {
		return err
	}
	p.ev = expr.NewEvaluator(p.sess, p.child.Schema(), p.label)
	p.out.Cols = make([]*vector.Vector, len(p.exprs))
	p.bcast = make([]*vector.Vector, len(p.exprs))
	return nil
}

// Next implements Operator. Expressions are not evaluated for empty
// batches; primitives never see zero live tuples.
func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if b.Live() == 0 {
		if p.empty == nil {
			for _, c := range p.Schema() {
				p.empty = append(p.empty, vector.New(c.Type, 0))
			}
		}
		copy(p.out.Cols, p.empty)
		p.out.N, p.out.Sel = 0, nil
		chargeOp(p.sess, perBatchOverhead)
		return &p.out, nil
	}
	for i, e := range p.exprs {
		v := e.Expr.Eval(p.ev, b)
		if v.Len() == 1 && b.N != 1 {
			// Broadcast a constant across the batch.
			p.bcast[i] = vector.Reuse(p.bcast[i], v.Type(), b.N)
			broadcast(v, p.bcast[i], b.N)
			v = p.bcast[i]
		}
		p.out.Cols[i] = v
	}
	p.out.N, p.out.Sel = b.N, b.Sel
	chargeOp(p.sess, perBatchOverhead)
	return &p.out, nil
}

func broadcast(src, dst *vector.Vector, n int) {
	switch src.Type() {
	case vector.I16:
		v := src.I16()[0]
		d := dst.I16()
		for i := 0; i < n; i++ {
			d[i] = v
		}
	case vector.I32:
		v := src.I32()[0]
		d := dst.I32()
		for i := 0; i < n; i++ {
			d[i] = v
		}
	case vector.I64:
		v := src.I64()[0]
		d := dst.I64()
		for i := 0; i < n; i++ {
			d[i] = v
		}
	case vector.F64:
		v := src.F64()[0]
		d := dst.F64()
		for i := 0; i < n; i++ {
			d[i] = v
		}
	case vector.Str:
		v := src.Str()[0]
		d := dst.Str()
		for i := 0; i < n; i++ {
			d[i] = v
		}
	}
}

// Close implements Operator.
func (p *Project) Close() { p.child.Close() }
