// Physical planning: lowering the logical DAG onto engine operators.
package plan

import (
	"fmt"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/vector"
)

// Exec is a plan bound to a session: the physical planner plus the
// execution state of one run — materialized shared subtrees and resolved
// scalars. Bind a fresh Exec per execution; an Exec is single-threaded
// like the session it wraps (parallelism comes from the fragment sessions
// the lowered Parallel/Exchange pairs spawn internally).
type Exec struct {
	sess *core.Session
	b    *Builder
	refs []int
	mat  map[int]*engine.Table
}

// Bind prepares the plan for execution on s.
func (b *Builder) Bind(s *core.Session) *Exec {
	return &Exec{sess: s, b: b, refs: b.refCounts(), mat: make(map[int]*engine.Table)}
}

// Preset installs t as node n's materialized result before execution, the
// hook distributed execution hangs off: the coordinator presets each
// fragment site with the merged per-shard partials, then runs the original
// plan — every consumer of n (parents, roots, scalar references, chain
// lowering) reads the preset table instead of recomputing the subtree.
func (e *Exec) Preset(n *Node, t *engine.Table) error {
	if n.b != e.b {
		return fmt.Errorf("plan: preset node %s belongs to a different plan", n.label)
	}
	if len(t.Sch) != len(n.sch) {
		return fmt.Errorf("plan: preset %s: table has %d columns, node wants %d", n.label, len(t.Sch), len(n.sch))
	}
	for i, c := range n.sch {
		if t.Sch[i] != c {
			return fmt.Errorf("plan: preset %s: column %d is %s %s, want %s %s",
				n.label, i, t.Sch[i].Name, t.Sch[i].Type, c.Name, c.Type)
		}
	}
	e.mat[n.id] = t
	return nil
}

// Run materializes node n's result table, executing (and memoizing) every
// upstream shared subtree and scalar on the way. Running several roots of
// one plan reuses all shared work.
func (e *Exec) Run(n *Node) (*engine.Table, error) {
	if t, ok := e.mat[n.id]; ok {
		return t, nil
	}
	op, err := e.pipeline(n)
	if err != nil {
		return nil, err
	}
	t, err := engine.Materialize(op)
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", n.label, err)
	}
	t.Name = n.label
	e.mat[n.id] = t
	return t, nil
}

// ScalarI64 materializes n and returns row 0 of the named column widened
// to int64.
func (e *Exec) ScalarI64(n *Node, col string) (int64, error) {
	t, err := e.Run(n)
	if err != nil {
		return 0, err
	}
	if t.Rows() == 0 {
		return 0, fmt.Errorf("plan: scalar %s.%s over empty result", n.label, col)
	}
	return t.Col(col).GetI64(0), nil
}

// lower produces the operator a single consumer pulls n's stream from:
// a fresh scan for stored tables and already-materialized nodes, a full
// materialization for shared subtrees, and an inline pipeline otherwise.
func (e *Exec) lower(n *Node) (engine.Operator, error) {
	if t, ok := e.mat[n.id]; ok {
		return engine.NewScan(e.sess, t), nil
	}
	if n.kind == KindScan {
		// Scans are stateless per consumer: shared scan nodes instantiate a
		// fresh cursor per parent instead of materializing.
		return e.scanOp(n), nil
	}
	if e.refs[n.id] > 1 {
		t, err := e.Run(n)
		if err != nil {
			return nil, err
		}
		return engine.NewScan(e.sess, t), nil
	}
	return e.pipeline(n)
}

// scanOp lowers a scan node: tables resident in compressed form scan
// through the adaptive decompression primitives (labelled with the scan
// node's plan position), flat tables through the zero-copy cursor.
func (e *Exec) scanOp(n *Node) engine.Operator {
	if n.table.Enc != nil {
		return engine.NewEncodedScan(e.sess, n.table, n.label, n.cols...)
	}
	return engine.NewScan(e.sess, n.table, n.cols...)
}

// chain is a maximal scan→select→project prefix: stack holds the chain's
// select/project nodes top-down; the base is either a stored-table scan
// node or a shared node the planner materializes first.
type chain struct {
	stack []*Node
	scan  *Node // base when the chain bottoms out at a stored table
	base  *Node // base when the chain bottoms out at a shared subtree
}

// chainOf derives, from plan shape alone, whether n tops a morsel-
// partitionable pipeline: an unbroken run of single-consumer Select /
// Project nodes over a row range that can be scanned per morsel. This is
// the analysis that replaces the hand-maintained list of partitionable
// queries. A node with a preset/materialized table in mat terminates the
// chain as its base — walking past it would re-execute work the preset
// replaced (on a distributed coordinator, against empty local tables). The
// static explain renderer passes mat=nil.
func chainOf(n *Node, refs []int, mat map[int]*engine.Table) *chain {
	c := &chain{}
	cur := n
	for cur.kind == KindSelect || cur.kind == KindProject {
		c.stack = append(c.stack, cur)
		child := cur.in[0]
		if _, ok := mat[child.id]; ok {
			c.base = child
			return c
		}
		switch {
		case child.kind == KindScan:
			c.scan = child
			return c
		case refs[child.id] > 1:
			c.base = child
			return c
		case child.kind == KindSelect || child.kind == KindProject:
			cur = child
		default:
			return nil // pipeline is fed by a blocking operator: not partitionable
		}
	}
	return nil
}

// pushdownSelect returns the chain node whose conjuncts are eligible for
// encoded-scan pushdown — the bottom-of-chain Select sitting directly on a
// compressed-resident stored-table scan — or nil. The planner and the
// explain renderer both route through this (and through
// engine.PushdownSplit for the conjunct split), so the explain annotation
// cannot drift from what executes.
func (c *chain) pushdownSelect() *Node {
	if c.scan == nil || c.scan.table.Enc == nil || len(c.stack) == 0 {
		return nil
	}
	if nd := c.stack[len(c.stack)-1]; nd.kind == KindSelect {
		return nd
	}
	return nil
}

// pipeline lowers n inline. When n tops a partitionable chain the whole
// chain lowers through engine.ParallelPipeline — one FragmentBuilder
// expresses both the serial shape (P=1, coordinator session, full range)
// and the partitioned shape (P fragments on fragment sessions, merged by
// an order-preserving exchange); otherwise n lowers to a single operator
// over its lowered children.
func (e *Exec) pipeline(n *Node) (engine.Operator, error) {
	c := chainOf(n, e.refs, e.mat)
	if c == nil {
		return e.build(n)
	}
	var (
		table *engine.Table
		cols  []string
	)
	if c.scan != nil {
		table = c.scan.table
		cols = c.scan.cols
	} else {
		t, err := e.Run(c.base)
		if err != nil {
			return nil, err
		}
		table = t
	}
	// Resolve scalar predicates before fragment construction: fragments
	// must not re-run scalar subplans, and resolution happens exactly once
	// per chain node regardless of the fan-out.
	resolved := make([][]engine.Pred, len(c.stack))
	for i, nd := range c.stack {
		if nd.kind != KindSelect {
			continue
		}
		preds, err := e.enginePreds(nd)
		if err != nil {
			return nil, err
		}
		resolved[i] = preds
	}
	// Over a compressed-resident table, the Select directly above the scan
	// pushes its leading constant-comparison conjuncts into the encoded
	// scan, where they run as selenc instances (decode vs operate-on-
	// compressed flavors) and hand the decompression of the output columns
	// a selection vector to exploit. Conjunct order is preserved, so the
	// produced selection — and every result bit — matches the flat plan.
	encoded := c.scan != nil && table.Enc != nil
	var pushPreds []engine.Pred
	pushLabel := ""
	if nd := c.pushdownSelect(); nd != nil {
		bottom := len(c.stack) - 1
		push, rest := engine.PushdownSplit(table, cols, resolved[bottom])
		pushPreds, resolved[bottom] = push, rest
		pushLabel = nd.label
	}
	// The fan-out decision is keyed by the pipeline's plan position: the
	// topmost node of the chain (the scan itself for bare-scan chains).
	pipeLabel := ""
	switch {
	case len(c.stack) > 0:
		pipeLabel = c.stack[0].label
	case c.scan != nil:
		pipeLabel = c.scan.label
	default:
		pipeLabel = c.base.label
	}
	return engine.ParallelPipeline(e.sess, pipeLabel, table.Rows(), func(fs *core.Session, m engine.Morsel) (engine.Operator, error) {
		var op engine.Operator
		if encoded {
			es := engine.NewEncodedRangeScan(fs, table, c.scan.label, m.Lo, m.Hi, cols...)
			if len(pushPreds) > 0 {
				es.Pushdown(pushLabel, pushPreds...)
			}
			op = es
		} else {
			op = engine.NewRangeScan(fs, table, m.Lo, m.Hi, cols...)
		}
		for i := len(c.stack) - 1; i >= 0; i-- {
			nd := c.stack[i]
			switch nd.kind {
			case KindSelect:
				op = engine.NewSelect(fs, op, nd.label, resolved[i]...)
			case KindProject:
				op = engine.NewProject(fs, op, nd.label, nd.exprs...)
			}
		}
		return op, nil
	})
}

// build constructs the engine operator of one non-chain node over its
// lowered children.
func (e *Exec) build(n *Node) (engine.Operator, error) {
	switch n.kind {
	case KindScan:
		return e.scanOp(n), nil
	case KindSelect:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		preds, err := e.enginePreds(n)
		if err != nil {
			return nil, err
		}
		return engine.NewSelect(e.sess, child, n.label, preds...), nil
	case KindProject:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		return engine.NewProject(e.sess, child, n.label, n.exprs...), nil
	case KindAgg:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		return engine.NewHashAgg(e.sess, child, n.label, n.groupBy, n.aggs...), nil
	case KindHashJoin:
		build, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		probe, err := e.lower(n.in[1])
		if err != nil {
			return nil, err
		}
		// The plan no longer bakes in the join algorithm: the engine's Join
		// resolves its strategy (hash / merge / bloomhash) on the session's
		// decision registry at Open. bloomBits survives only as the
		// bloomhash arm's filter-density hint.
		opts := []engine.JoinOption{engine.WithKind(n.joinKind)}
		if n.bloomBits > 0 {
			opts = append(opts, engine.WithBloom(n.bloomBits))
		}
		return engine.NewJoin(e.sess, build, probe, n.label, n.buildKey, n.probeKey, n.payload, opts...), nil
	case KindMergeJoin:
		left, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		right, err := e.lower(n.in[1])
		if err != nil {
			return nil, err
		}
		return engine.NewMergeJoin(e.sess, left, right, n.label, n.leftKey, n.rightKey, n.leftOut, n.rightOut), nil
	case KindSort:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		return engine.NewSort(e.sess, child, n.keys...), nil
	case KindTopN:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		return engine.NewTopN(e.sess, child, n.limit, n.keys...), nil
	case KindLimit:
		child, err := e.lower(n.in[0])
		if err != nil {
			return nil, err
		}
		return engine.NewLimit(e.sess, child, n.limit), nil
	default:
		return nil, fmt.Errorf("plan: unknown node kind %d", n.kind)
	}
}

// enginePreds converts a select node's predicates to engine predicates,
// resolving scalar references by materializing their source subplans.
func (e *Exec) enginePreds(n *Node) ([]engine.Pred, error) {
	out := make([]engine.Pred, len(n.preds))
	inSch := n.in[0].sch
	for i, p := range n.preds {
		ep := p.pred
		if p.scalar != nil {
			if err := e.resolveScalar(*p.scalar, inSch[ep.Col].Type, &ep); err != nil {
				return nil, err
			}
		}
		out[i] = ep
	}
	return out, nil
}

// resolveScalar reads the scalar's value and stores it in ep as the
// constant matching the predicate's left-column type family.
func (e *Exec) resolveScalar(s Scalar, target vector.Type, ep *engine.Pred) error {
	t, err := e.Run(s.From)
	if err != nil {
		return err
	}
	if t.Rows() == 0 {
		return fmt.Errorf("plan: scalar %s over empty result", s.String())
	}
	src := t.Col(s.Col)
	if target == vector.F64 {
		v := src.GetF64(0)
		if s.Div > 1 {
			v /= float64(s.Div)
		}
		ep.F64 = v
		return nil
	}
	var v int64
	if src.Type() == vector.F64 {
		v = int64(src.GetF64(0))
	} else {
		v = src.GetI64(0)
	}
	if s.Div > 1 {
		v /= s.Div
	}
	ep.I64 = v
	return nil
}
