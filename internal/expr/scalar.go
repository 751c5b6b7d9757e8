package expr

import (
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// The nodes in this file are evaluated in plain Go and charged as operator
// cycles: date/year extraction, casts, substrings and CASE expressions are
// not part of the paper's flavor sets, so making them adaptive would only
// add noise to the experiments.

// MapI64 applies an arbitrary scalar function to an integer column,
// producing I64 (e.g. year-of-date extraction). Name is the function's
// symbolic identity for plan serialization: a node whose function is
// registered under Name (see plan.RegisterMapI64) survives a JSON
// round-trip; a node with a bare Fn and no Name is unserializable.
type MapI64 struct {
	Child Node
	Fn    func(int64) int64
	Name  string  // registry name of Fn ("" = not serializable)
	Cost  float64 // cycles per tuple; 0 means 4
}

// Type implements Node.
func (n *MapI64) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (n *MapI64) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Child.Eval(ev, b)
	res := ev.scratch(n, vector.I64, b.N)
	out := res.I64()
	apply := func(i int32) { out[i] = n.Fn(in.GetI64(int(i))) }
	if b.Sel != nil {
		for _, i := range b.Sel {
			apply(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			apply(int32(i))
		}
	}
	cost := n.Cost
	if cost == 0 {
		cost = 4
	}
	ev.Sess.Ctx.OperatorCycles += cost * float64(b.Live())
	return res
}

// ToF64 casts an integer column to float64.
type ToF64 struct{ Child Node }

// CastF64 widens a numeric expression to float64.
func CastF64(n Node) Node { return &ToF64{Child: n} }

// Type implements Node.
func (n *ToF64) Type(vector.Schema) vector.Type { return vector.F64 }

// Eval implements Node.
func (n *ToF64) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Child.Eval(ev, b)
	if in.Type() == vector.F64 {
		return in
	}
	res := ev.scratch(n, vector.F64, b.N)
	out := res.F64()
	apply := func(i int32) { out[i] = in.GetF64(int(i)) }
	if b.Sel != nil {
		for _, i := range b.Sel {
			apply(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			apply(int32(i))
		}
	}
	ev.Sess.Ctx.OperatorCycles += 0.5 * float64(b.Live())
	return res
}

// Substr extracts a fixed substring of a string column (e.g. the phone
// country code of TPC-H Q22).
type Substr struct {
	Child     Node
	From, Len int // From is 0-based
}

// Type implements Node.
func (n *Substr) Type(vector.Schema) vector.Type { return vector.Str }

// Eval implements Node.
func (n *Substr) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Child.Eval(ev, b).Str()
	res := ev.scratch(n, vector.Str, b.N)
	out := res.Str()
	apply := func(i int32) {
		s := in[i]
		lo := n.From
		if lo > len(s) {
			lo = len(s)
		}
		hi := lo + n.Len
		if hi > len(s) {
			hi = len(s)
		}
		out[i] = s[lo:hi]
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			apply(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			apply(int32(i))
		}
	}
	ev.Sess.Ctx.OperatorCycles += 2 * float64(b.Live())
	return res
}

// CaseEqStr evaluates to Then where the string column equals Value, Else
// otherwise (Q8's market-share indicator).
type CaseEqStr struct {
	Col        Node
	Value      string
	Then, Else int64
}

// Type implements Node.
func (n *CaseEqStr) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (n *CaseEqStr) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Col.Eval(ev, b).Str()
	res := ev.scratch(n, vector.I64, b.N)
	out := res.I64()
	apply := func(i int32) {
		if in[i] == n.Value {
			out[i] = n.Then
		} else {
			out[i] = n.Else
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			apply(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			apply(int32(i))
		}
	}
	ev.Sess.Ctx.OperatorCycles += 3 * float64(b.Live())
	return res
}

// CaseLikeStr evaluates to Then where the string column matches the LIKE
// pattern (Q14's promo indicator), Else otherwise. Set Pattern (a
// simplified SQL LIKE pattern, matched with primitive.LikeMatch) for a
// node that survives plan serialization; Match overrides Pattern with an
// arbitrary predicate but makes the node unserializable.
type CaseLikeStr struct {
	Col        Node
	Pattern    string
	Match      func(s string) bool // overrides Pattern when non-nil
	Then, Else int64
}

// Type implements Node.
func (n *CaseLikeStr) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (n *CaseLikeStr) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Col.Eval(ev, b).Str()
	res := ev.scratch(n, vector.I64, b.N)
	out := res.I64()
	match := n.Match
	if match == nil {
		pattern := n.Pattern
		match = func(s string) bool { return primitive.LikeMatch(s, pattern) }
	}
	apply := func(i int32) {
		if match(in[i]) {
			out[i] = n.Then
		} else {
			out[i] = n.Else
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			apply(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			apply(int32(i))
		}
	}
	ev.Sess.Ctx.OperatorCycles += 6 * float64(b.Live())
	return res
}
