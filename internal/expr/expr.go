// Package expr is the vectorized expression evaluator: it recursively
// evaluates expression trees over batches, calling map primitives through
// per-node primitive instances. This is the component the paper modified to
// host the learning algorithm — every Call node resolves its primitive in
// the dictionary and lets the instance's chooser pick a flavor per call.
package expr

import (
	"fmt"

	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// Node is a typed expression over a batch's columns. Eval returns a vector
// of length batch.N whose live positions (batch.Sel) hold the results;
// positions outside the selection are undefined (Figure 7 left). The vector
// belongs to the evaluator and is overwritten by the node's next Eval.
type Node interface {
	// Type returns the result type under the given input schema.
	Type(s vector.Schema) vector.Type
	// Eval computes the expression for the batch.
	Eval(ev *Evaluator, b *vector.Batch) *vector.Vector
}

// Col references an input column by index.
type Col struct{ Idx int }

// Type implements Node.
func (c *Col) Type(s vector.Schema) vector.Type { return s[c.Idx].Type }

// Eval implements Node.
func (c *Col) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector { return b.Cols[c.Idx] }

// ConstI64 is an int64 literal.
type ConstI64 struct{ V int64 }

// Type implements Node.
func (c *ConstI64) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (c *ConstI64) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	st := ev.node(c)
	if st.res == nil {
		st.res = vector.ConstI64(c.V)
	}
	return st.res
}

// ConstI32 is an int32 literal.
type ConstI32 struct{ V int32 }

// Type implements Node.
func (c *ConstI32) Type(vector.Schema) vector.Type { return vector.I32 }

// Eval implements Node.
func (c *ConstI32) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	st := ev.node(c)
	if st.res == nil {
		st.res = vector.ConstI32(c.V)
	}
	return st.res
}

// ConstF64 is a float64 literal.
type ConstF64 struct{ V float64 }

// Type implements Node.
func (c *ConstF64) Type(vector.Schema) vector.Type { return vector.F64 }

// Eval implements Node.
func (c *ConstF64) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	st := ev.node(c)
	if st.res == nil {
		st.res = vector.ConstF64(c.V)
	}
	return st.res
}

// isConst reports whether a node is a literal (evaluates to a 1-tuple
// vector used as a _val parameter).
func isConst(n Node) bool {
	switch n.(type) {
	case *ConstI64, *ConstI32, *ConstF64:
		return true
	}
	return false
}

// BinOp is an arithmetic expression (+, -, *, /) over operands of the same
// numeric type; it maps to one primitive instance.
type BinOp struct {
	Op   string
	L, R Node
}

// Add returns l + r.
func Add(l, r Node) *BinOp { return &BinOp{Op: "+", L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Node) *BinOp { return &BinOp{Op: "-", L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Node) *BinOp { return &BinOp{Op: "*", L: l, R: r} }

// Div returns l / r.
func Div(l, r Node) *BinOp { return &BinOp{Op: "/", L: l, R: r} }

// Type implements Node.
func (n *BinOp) Type(s vector.Schema) vector.Type { return n.L.Type(s) }

// Eval implements Node.
func (n *BinOp) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	t := n.Type(ev.Schema)
	lv := n.L.Eval(ev, b)
	rv := n.R.Eval(ev, b)
	st := ev.node(n)
	if st.inst == nil {
		shape := "col_col"
		switch {
		case isConst(n.R):
			shape = "col_val"
		case isConst(n.L):
			shape = "val_col"
		}
		st.inst = ev.instance(primitive.MapSig(n.Op, t, shape))
	}
	st.res = vector.Reuse(st.res, t, b.N)
	st.in[0], st.in[1] = lv, rv
	st.call = core.Call{N: b.N, Sel: b.Sel, In: st.in[:], Res: st.res}
	st.inst.Run(ev.Sess.Ctx, &st.call)
	return st.res
}

// Widen converts an integer column to I64 (a cast map primitive in
// Vectorwise; here a fixed-cost conversion outside the flavor sets).
type Widen struct{ Child Node }

// ToI64 widens an integer expression to 64 bits.
func ToI64(n Node) Node { return &Widen{Child: n} }

// Type implements Node.
func (w *Widen) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (w *Widen) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := w.Child.Eval(ev, b)
	if in.Type() == vector.I64 {
		return in
	}
	res := ev.scratch(w, vector.I64, b.N)
	primitive.WidenToI64(in, b.Sel, b.N, res)
	ev.Sess.Ctx.OperatorCycles += 0.5 * float64(b.Live())
	return res
}

// CaseInStr evaluates to Then where the string column's value is in Values,
// Else otherwise (the CASE expressions of TPC-H Q12/Q14). It is evaluated
// in plain Go: CASE maps are not part of the paper's flavor sets.
type CaseInStr struct {
	Col        Node
	Values     []string
	Then, Else int64
}

// Type implements Node.
func (n *CaseInStr) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (n *CaseInStr) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Col.Eval(ev, b).Str()
	st := ev.node(n)
	if st.set == nil {
		st.set = make(map[string]bool, len(n.Values))
		for _, v := range n.Values {
			st.set[v] = true
		}
	}
	set := st.set
	st.res = vector.Reuse(st.res, vector.I64, b.N)
	res := st.res
	out := res.I64()
	eval1 := func(i int32) {
		if set[in[i]] {
			out[i] = n.Then
		} else {
			out[i] = n.Else
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			eval1(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			eval1(int32(i))
		}
	}
	res.SetLen(b.N)
	ev.Sess.Ctx.OperatorCycles += 4 * float64(b.Live())
	return res
}

// Evaluator evaluates expressions for one operator. It owns, per
// expression node, the node's primitive instance (labelled uniquely within
// the query) and the storage the node's Eval reuses from batch to batch.
// Nodes themselves stay stateless: the partitions of a parallel plan
// evaluate the same tree concurrently, each through its own Evaluator.
type Evaluator struct {
	Sess   *core.Session
	Schema vector.Schema
	Prefix string // label prefix, e.g. "Q1/project0"

	nodes  map[Node]*nodeState
	nextID int
}

// nodeState is what one expression node keeps across batches.
type nodeState struct {
	inst *core.Instance    // BinOp: the node's primitive instance
	res  *vector.Vector    // the node's result vector (a literal's 1-tuple vector)
	call core.Call         // BinOp: the call record passed to inst.Run
	in   [2]*vector.Vector // BinOp: backing array of call.In
	set  map[string]bool   // CaseInStr: membership set of Values
}

// NewEvaluator builds an evaluator for the operator named by prefix.
func NewEvaluator(sess *core.Session, schema vector.Schema, prefix string) *Evaluator {
	return &Evaluator{Sess: sess, Schema: schema, Prefix: prefix, nodes: make(map[Node]*nodeState)}
}

// node returns n's state, creating it on first use.
func (ev *Evaluator) node(n Node) *nodeState {
	st := ev.nodes[n]
	if st == nil {
		st = &nodeState{}
		ev.nodes[n] = st
	}
	return st
}

// instance creates the primitive instance of the next expression node.
func (ev *Evaluator) instance(sig string) *core.Instance {
	label := fmt.Sprintf("%s/%s#%d", ev.Prefix, sig, ev.nextID)
	ev.nextID++
	return ev.Sess.Instance(sig, label)
}

// scratch returns n's result vector sized for a batch of size tuples. The
// vector is reused from batch to batch, so it is valid only until n is
// evaluated again (the engine.Operator.Next contract) and the positions a
// node does not write — everything outside the batch's selection — hold
// stale values from earlier batches. A node shared by two expressions of
// one operator is evaluated twice per batch into the same vector, with the
// same inputs and so the same live results.
func (ev *Evaluator) scratch(n Node, t vector.Type, size int) *vector.Vector {
	st := ev.node(n)
	st.res = vector.Reuse(st.res, t, size)
	return st.res
}
