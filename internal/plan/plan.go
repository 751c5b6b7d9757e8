// Package plan is the declarative plan layer over the vectorized executor:
// a logical plan DAG (scan, select, project, aggregate, hash/merge join,
// sort, top-n, limit) with a fluent builder API, a physical planner that
// lowers plans onto engine operators against a core.Session, and an
// explain renderer for both levels.
//
// The planner — not the query author — decides everything the paper calls
// "plan position" bookkeeping:
//
//   - instance labels are derived from plan structure ("Q1/sel0",
//     "Q6/proj0"), so fragment bandits and the cross-session FlavorCache
//     key off the position of a primitive in the plan, never off a
//     hand-typed string;
//   - morsel partitionability is derived from plan shape: every maximal
//     scan→select→project chain is lowered through engine.ParallelPipeline
//     and fans into P order-preserving fragments when the session's
//     pipeline parallelism and the scanned row count allow it;
//   - shared subtrees (a node consumed by more than one parent) are
//     materialized exactly once and scanned by every consumer.
//
// Plans are built once per query shape and bound to a session per
// execution:
//
//	b := plan.New("Q6")
//	li := b.Scan(db.Lineitem, "l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
//	sel := li.Select(plan.CmpVal(0, ">=", lo), plan.CmpVal(0, "<", hi))
//	b.Root(sel.Project(...).Agg(nil, engine.Agg(engine.AggSum, 0, "revenue")))
//	tab, err := b.Bind(sess).Run(b.MainRoot())
package plan

import (
	"fmt"
	"strconv"

	"microadapt/internal/engine"
	"microadapt/internal/expr"
	"microadapt/internal/vector"
)

// Kind enumerates the logical operator kinds.
type Kind uint8

// Logical node kinds.
const (
	KindScan Kind = iota
	KindSelect
	KindProject
	KindAgg
	KindHashJoin
	KindMergeJoin
	KindSort
	KindTopN
	KindLimit
)

// tag returns the short label tag of a kind ("sel", "hj", ...).
func (k Kind) tag() string {
	switch k {
	case KindScan:
		return "scan"
	case KindSelect:
		return "sel"
	case KindProject:
		return "proj"
	case KindAgg:
		return "agg"
	case KindHashJoin:
		return "hj"
	case KindMergeJoin:
		return "mj"
	case KindSort:
		return "sort"
	case KindTopN:
		return "topn"
	case KindLimit:
		return "limit"
	default:
		return "op"
	}
}

// String returns the display name of a kind.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "Scan"
	case KindSelect:
		return "Select"
	case KindProject:
		return "Project"
	case KindAgg:
		return "HashAgg"
	case KindHashJoin:
		return "HashJoin"
	case KindMergeJoin:
		return "MergeJoin"
	case KindSort:
		return "Sort"
	case KindTopN:
		return "TopN"
	case KindLimit:
		return "Limit"
	default:
		return "Op"
	}
}

// Scalar defers a constant to execution time: the value is row 0 of column
// Col of the (materialized) result of From, optionally integer-divided by
// Div — the plan-level form of a scalar subquery (Q11's HAVING threshold,
// Q15's max revenue, Q22's average balance).
type Scalar struct {
	From *Node
	Col  string
	Div  int64 // > 1: integer-divide the value (float values divide too)
}

// ScalarOf references row 0 of column col of n's result.
func ScalarOf(n *Node, col string) Scalar { return Scalar{From: n, Col: col} }

// DivBy divides the scalar by d at resolution time.
func (s Scalar) DivBy(d int64) Scalar {
	s.Div = d
	return s
}

// String renders the scalar reference for explain output.
func (s Scalar) String() string {
	out := fmt.Sprintf("$(%s.%s)", s.From.label, s.Col)
	if s.Div > 1 {
		out += "/" + strconv.FormatInt(s.Div, 10)
	}
	return out
}

// Pred is one conjunct of a logical Select: an engine predicate whose
// constant may be deferred to a Scalar resolved at lowering time.
type Pred struct {
	pred   engine.Pred
	scalar *Scalar
}

// CmpVal builds a column-vs-constant comparison (int, float64 or string).
func CmpVal(col int, op string, value any) Pred {
	return Pred{pred: engine.CmpVal(col, op, value)}
}

// CmpCol builds a column-vs-column comparison.
func CmpCol(col int, op string, rhs int) Pred { return Pred{pred: engine.CmpCol(col, op, rhs)} }

// CmpScalar builds a column-vs-scalar comparison; the constant is read from
// the scalar's source node when the plan is lowered.
func CmpScalar(col int, op string, s Scalar) Pred {
	return Pred{pred: engine.Pred{Col: col, Op: op, RHSCol: -1}, scalar: &s}
}

// Like builds a LIKE predicate.
func Like(col int, pattern string) Pred { return Pred{pred: engine.Like(col, pattern)} }

// NotLike builds a NOT LIKE predicate.
func NotLike(col int, pattern string) Pred { return Pred{pred: engine.NotLike(col, pattern)} }

// InStr builds an IN-list predicate over a string column.
func InStr(col int, values ...string) Pred { return Pred{pred: engine.InStr(col, values...)} }

// InI32 builds an IN-list predicate over a sint column.
func InI32(col int, values ...int32) Pred { return Pred{pred: engine.InI32(col, values...)} }

// Node is one logical operator of a plan DAG. Nodes are created through
// the Builder and are immutable once built; a node consumed by several
// parents is a shared subtree the planner materializes once.
type Node struct {
	b     *Builder
	id    int // creation order within the builder
	kind  Kind
	label string // derived plan-position label, e.g. "Q1/sel0"
	in    []*Node
	sch   vector.Schema

	// scan
	table *engine.Table
	cols  []string

	// select
	preds []Pred

	// project
	exprs []engine.ProjExpr

	// aggregate
	groupBy []int
	aggs    []engine.AggSpec

	// hash join
	joinKind           engine.JoinKind
	buildKey, probeKey string
	payload            []string
	bloomBits          int

	// merge join
	leftKey, rightKey string
	leftOut, rightOut []string

	// sort / top-n / limit
	keys  []engine.SortKey
	limit int
}

// Builder accumulates the nodes of one query's plan DAG and derives their
// plan-position labels. One builder describes one query; it may carry
// several roots (Q19's three disjunct branches, Q13's distribution and
// zero-bucket outputs).
type Builder struct {
	name      string
	nodes     []*Node
	kindCount map[Kind]int
	roots     []Root
}

// Root is one named output of a plan.
type Root struct {
	Name string
	Node *Node
}

// New starts a plan builder; name prefixes every derived label.
func New(name string) *Builder {
	return &Builder{name: name, kindCount: make(map[Kind]int)}
}

// Name returns the plan name.
func (b *Builder) Name() string { return b.name }

// Nodes returns every node in creation order.
func (b *Builder) Nodes() []*Node { return b.nodes }

// Root registers n as a plan output (the first registered root is the main
// one), named "out" or "out<N>".
func (b *Builder) Root(n *Node) *Node {
	name := "out"
	if len(b.roots) > 0 {
		name = "out" + strconv.Itoa(len(b.roots))
	}
	return b.NamedRoot(name, n)
}

// NamedRoot registers n as the plan output called name.
func (b *Builder) NamedRoot(name string, n *Node) *Node {
	b.roots = append(b.roots, Root{Name: name, Node: n})
	return n
}

// Roots returns the registered outputs in registration order.
func (b *Builder) Roots() []Root { return b.roots }

// MainRoot returns the first registered output.
func (b *Builder) MainRoot() *Node {
	if len(b.roots) == 0 {
		panic("plan: " + b.name + " has no root")
	}
	return b.roots[0].Node
}

// newNode registers a node and derives its plan-position label from the
// builder name, the operator kind and the per-kind creation ordinal —
// "Q1/sel0", "Q1/proj0", "Q21/hj3". Two sessions building the same plan
// derive identical labels, which is what lets per-partition fragment
// bandits and the cross-session FlavorCache key off plan structure.
func (b *Builder) newNode(k Kind, in ...*Node) *Node {
	for _, c := range in {
		if c.b != b {
			panic("plan: node from a different builder")
		}
	}
	n := &Node{
		b:     b,
		id:    len(b.nodes),
		kind:  k,
		label: b.name + "/" + k.tag() + strconv.Itoa(b.kindCount[k]),
		in:    in,
	}
	b.kindCount[k]++
	b.nodes = append(b.nodes, n)
	return n
}

// Scan streams the named columns of a stored table (all columns when none
// are named).
func (b *Builder) Scan(t *engine.Table, cols ...string) *Node {
	n := b.newNode(KindScan)
	n.table = t
	n.cols = cols
	if len(cols) == 0 {
		n.sch = t.Sch
	} else {
		for _, name := range cols {
			n.sch = append(n.sch, t.Sch[t.Sch.MustIndexOf(name)])
		}
	}
	return n
}

// Select filters n through conjunctive predicates.
func (n *Node) Select(preds ...Pred) *Node {
	out := n.b.newNode(KindSelect, n)
	out.preds = preds
	out.sch = n.sch
	return out
}

// Project computes expressions as the new output columns.
func (n *Node) Project(exprs ...engine.ProjExpr) *Node {
	out := n.b.newNode(KindProject, n)
	out.exprs = exprs
	for _, e := range exprs {
		out.sch = append(out.sch, vector.Col{Name: e.Name, Type: e.Expr.Type(n.sch)})
	}
	return out
}

// Agg groups n on groupBy (nil for a global aggregate) computing aggs.
func (n *Node) Agg(groupBy []int, aggs ...engine.AggSpec) *Node {
	out := n.b.newNode(KindAgg, n)
	out.groupBy = groupBy
	out.aggs = aggs
	out.sch = engine.AggOutputSchema(n.sch, groupBy, aggs)
	return out
}

// Sort orders n by keys.
func (n *Node) Sort(keys ...engine.SortKey) *Node {
	out := n.b.newNode(KindSort, n)
	out.keys = keys
	out.sch = n.sch
	return out
}

// TopN orders n by keys and keeps the first nRows rows.
func (n *Node) TopN(nRows int, keys ...engine.SortKey) *Node {
	out := n.b.newNode(KindTopN, n)
	out.keys = keys
	out.limit = nRows
	out.sch = n.sch
	return out
}

// Limit truncates n to nRows live rows.
func (n *Node) Limit(nRows int) *Node {
	out := n.b.newNode(KindLimit, n)
	out.limit = nRows
	out.sch = n.sch
	return out
}

// JoinOption configures a hash join node.
type JoinOption func(*Node)

// WithBloom enables the bloom-filter pre-filter with bits per build key.
func WithBloom(bitsPerKey int) JoinOption {
	return func(n *Node) { n.bloomBits = bitsPerKey }
}

// HashJoin joins probe against the materialized build side on single
// integer keys; payload names build columns appended to the probe schema
// (inner joins only).
func (b *Builder) HashJoin(build, probe *Node, buildKey, probeKey string, payload []string, opts ...JoinOption) *Node {
	n := b.newNode(KindHashJoin, build, probe)
	n.joinKind = engine.InnerJoin
	n.buildKey, n.probeKey = buildKey, probeKey
	n.payload = payload
	for _, o := range opts {
		o(n)
	}
	// Resolve the keys now so a typo fails at plan-build time, not deep in
	// operator Open.
	build.sch.MustIndexOf(buildKey)
	probe.sch.MustIndexOf(probeKey)
	n.sch = append(n.sch, probe.sch...)
	if n.joinKind == engine.InnerJoin {
		for _, name := range payload {
			n.sch = append(n.sch, build.sch[build.sch.MustIndexOf(name)])
		}
	}
	return n
}

// SemiJoin keeps probe tuples with a build-side match.
func (b *Builder) SemiJoin(build, probe *Node, buildKey, probeKey string, opts ...JoinOption) *Node {
	return b.joinOfKind(engine.SemiJoin, build, probe, buildKey, probeKey, opts...)
}

// AntiJoin keeps probe tuples without a build-side match.
func (b *Builder) AntiJoin(build, probe *Node, buildKey, probeKey string, opts ...JoinOption) *Node {
	return b.joinOfKind(engine.AntiJoin, build, probe, buildKey, probeKey, opts...)
}

func (b *Builder) joinOfKind(k engine.JoinKind, build, probe *Node, buildKey, probeKey string, opts ...JoinOption) *Node {
	n := b.newNode(KindHashJoin, build, probe)
	n.joinKind = k
	n.buildKey, n.probeKey = buildKey, probeKey
	for _, o := range opts {
		o(n)
	}
	build.sch.MustIndexOf(buildKey)
	probe.sch.MustIndexOf(probeKey)
	n.sch = append(n.sch, probe.sch...)
	return n
}

// MergeJoin joins two inputs already sorted on their integer keys, emitting
// leftOut columns from left and rightOut columns from right.
func (b *Builder) MergeJoin(left, right *Node, leftKey, rightKey string, leftOut, rightOut []string) *Node {
	n := b.newNode(KindMergeJoin, left, right)
	n.leftKey, n.rightKey = leftKey, rightKey
	n.leftOut, n.rightOut = leftOut, rightOut
	left.sch.MustIndexOf(leftKey)
	right.sch.MustIndexOf(rightKey)
	for _, name := range leftOut {
		n.sch = append(n.sch, left.sch[left.sch.MustIndexOf(name)])
	}
	for _, name := range rightOut {
		n.sch = append(n.sch, right.sch[right.sch.MustIndexOf(name)])
	}
	return n
}

// Schema returns the node's output schema.
func (n *Node) Schema() vector.Schema { return n.sch }

// Label returns the derived plan-position label.
func (n *Node) Label() string { return n.label }

// Idx resolves a column name in the node's output schema; it panics on an
// unknown name, like every schema lookup at plan-build time.
func (n *Node) Idx(name string) int { return n.sch.MustIndexOf(name) }

// Col builds a column-reference expression by name.
func (n *Node) Col(name string) expr.Node { return &expr.Col{Idx: n.Idx(name)} }

// refCounts returns, per node id, how many consumers the final DAG has:
// plan children plus scalar references. The physical planner materializes
// any non-scan node with more than one consumer.
func (b *Builder) refCounts() []int {
	refs := make([]int, len(b.nodes))
	for _, n := range b.nodes {
		for _, c := range n.in {
			refs[c.id]++
		}
		for _, p := range n.preds {
			if p.scalar != nil {
				refs[p.scalar.From.id]++
			}
		}
	}
	return refs
}
