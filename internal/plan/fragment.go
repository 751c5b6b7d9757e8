// Fragment derivation for distributed execution: the coordinator-side
// analysis that splits a logical plan at its base-table scans into
// shippable per-shard fragments plus a merge step.
//
// A fragment site is one base-table scan together with the maximal prefix
// of the plan that can run on a shard holding only a row-range of that
// table: the scan's unbroken single-consumer select/project chain
// (scalar-predicate selects stay on the coordinator — their subplans may
// read other tables), optionally extended through a partial aggregate.
// Because shards own contiguous row ranges in table order, concatenating
// their partial outputs in shard order reproduces exactly the stream a
// single process would produce — streaming selects and projects preserve
// row order, and HashAgg assigns dense group ids in first-seen order, so
// even aggregate group order survives the split.
//
// Aggregate pushdown is exactness-gated: a fragment carries the Agg only
// when every aggregate merges bit-identically from per-shard partials —
// count, integer sum, min/max, integer avg (shipped as sum+count, finalized
// exactly like the engine), and grouped first. Float sums and avgs are not
// associative, so those chains ship only the select/project prefix and
// aggregate on the coordinator.
package plan

import (
	"fmt"
	"sync"

	"microadapt/internal/engine"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// MergeKind says how per-shard partial tables combine into the site node's
// result.
type MergeKind uint8

const (
	// MergeConcat concatenates the partials in shard order.
	MergeConcat MergeKind = iota
	// MergePartialAgg folds partial aggregates group-wise.
	MergePartialAgg
)

// aggMerge describes how one original aggregate folds across partials.
type aggMerge struct {
	fn     engine.AggFn // original aggregate function
	col    int          // partial column holding the partial aggregate
	cntCol int          // avg only: partial column holding the count; -1 otherwise
}

// FragmentSite is one distribution point of a plan: the original node whose
// result the merged partials stand in for (via Exec.Preset), and the
// shippable fragment plan each shard executes over its row range.
type FragmentSite struct {
	Node     *Node    // node of the original plan the merge result presets
	Fragment *Builder // per-shard partial plan (marshal with MarshalPlan)
	Table    string   // base table the fragment scans

	merge     MergeKind
	groupCols int
	aggs      []aggMerge
}

// hasScalarPred reports whether any conjunct of a select defers its
// constant to a scalar subplan (which a shard cannot resolve).
func hasScalarPred(n *Node) bool {
	for _, p := range n.preds {
		if p.scalar != nil {
			return true
		}
	}
	return false
}

// decomposableAggs reports whether every aggregate of an Agg node merges
// exactly from per-shard partials. The gates mirror the engine's
// accumulator semantics:
//
//   - float sums and avgs accumulate in float64, and float addition is not
//     associative — splitting them would break bit-identity;
//   - global (group-less) float min/max finalize an empty input to 0, not
//     ±Inf, so an empty shard's partial is not a neutral element;
//   - a global first cannot be produced by a row-less shard at all.
func decomposableAggs(in vector.Schema, groupBy []int, aggs []engine.AggSpec) bool {
	for _, a := range aggs {
		switch a.Fn {
		case engine.AggCount:
		case engine.AggSum, engine.AggAvg:
			if in[a.Col].Type == vector.F64 || in[a.Col].Type == vector.Str {
				return false
			}
		case engine.AggMin, engine.AggMax:
			t := in[a.Col].Type
			if t == vector.Str || (t == vector.F64 && len(groupBy) == 0) {
				return false
			}
		case engine.AggFirst:
			if len(groupBy) == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// FragmentSites derives the plan's distribution points: one site per
// base-table scan. Chain climbing stops at shared nodes, plan roots and
// scalar-referenced nodes — their tables are consumed by more than the
// chain above, so the merge result must be preset exactly there.
func FragmentSites(b *Builder) []*FragmentSite {
	refs := b.refCounts()
	parents := make([][]*Node, len(b.nodes))
	for _, n := range b.nodes {
		for _, c := range n.in {
			parents[c.id] = append(parents[c.id], n)
		}
	}
	isRoot := make([]bool, len(b.nodes))
	for _, r := range b.roots {
		isRoot[r.Node.id] = true
	}
	soleParent := func(n *Node) *Node {
		if isRoot[n.id] || refs[n.id] != 1 || len(parents[n.id]) != 1 {
			return nil
		}
		return parents[n.id][0]
	}

	var sites []*FragmentSite
	for _, n := range b.nodes {
		if n.kind != KindScan {
			continue
		}
		chainNodes := []*Node{n}
		frontier := n
		for {
			p := soleParent(frontier)
			if p == nil {
				break
			}
			if p.kind == KindProject || (p.kind == KindSelect && !hasScalarPred(p)) {
				frontier = p
				chainNodes = append(chainNodes, p)
				continue
			}
			break
		}
		var aggNode *Node
		if p := soleParent(frontier); p != nil && p.kind == KindAgg &&
			decomposableAggs(frontier.sch, p.groupBy, p.aggs) {
			aggNode = p
		}
		sites = append(sites, buildSite(b, chainNodes, aggNode))
	}
	return sites
}

// buildSite replays the chain (and optional partial aggregate) into a
// fresh shippable builder. Node labels are copied from the original plan,
// so the shard-side primitive instances key into the FlavorCache under the
// same plan positions as a single-process run — which is what makes
// federated flavor knowledge transferable in both directions.
func buildSite(b *Builder, chainNodes []*Node, aggNode *Node) *FragmentSite {
	scan := chainNodes[0]
	fb := New(b.name)
	cur := fb.Scan(scan.table, scan.cols...)
	cur.label = scan.label
	for _, nd := range chainNodes[1:] {
		switch nd.kind {
		case KindSelect:
			cur = cur.Select(nd.preds...)
		case KindProject:
			cur = cur.Project(nd.exprs...)
		}
		cur.label = nd.label
	}
	site := &FragmentSite{
		Node:  chainNodes[len(chainNodes)-1],
		Table: scan.table.Name,
		merge: MergeConcat,
	}
	if aggNode != nil {
		var partial []engine.AggSpec
		col := len(aggNode.groupBy)
		for _, a := range aggNode.aggs {
			if a.Fn == engine.AggAvg {
				// An exact distributed avg ships as sum+count; the merge
				// finalizes float64(sum)/float64(count) exactly like the
				// engine's accumulator does.
				partial = append(partial,
					engine.Agg(engine.AggSum, a.Col, a.As+"$sum"),
					engine.Agg(engine.AggCount, -1, a.As+"$cnt"))
				site.aggs = append(site.aggs, aggMerge{fn: a.Fn, col: col, cntCol: col + 1})
				col += 2
				continue
			}
			partial = append(partial, a)
			site.aggs = append(site.aggs, aggMerge{fn: a.Fn, col: col, cntCol: -1})
			col++
		}
		cur = cur.Agg(aggNode.groupBy, partial...)
		cur.label = aggNode.label
		site.Node = aggNode
		site.merge = MergePartialAgg
		site.groupCols = len(aggNode.groupBy)
	}
	fb.NamedRoot("partial", cur)
	site.Fragment = fb
	return site
}

// PartialAccumulator folds per-shard partial chunks into one merged site
// result incrementally, so a streaming coordinator can start merging while
// shards are still producing. It is safe for concurrent use by one
// goroutine per shard.
//
// The ordering contract that makes the merge bit-identical to a
// single-process run is preserved by construction:
//
//   - MergeConcat sites append each chunk to its shard's private column
//     slot as it arrives (chunks from one shard arrive in row order); the
//     final Result concatenates the slots in shard order.
//   - MergePartialAgg sites must discover groups in (shard order, row
//     order) — the global first-seen order of a single-process HashAgg —
//     so chunks queue per shard and fold into the persistent accumulator
//     only when every earlier shard's stream has finished. A finished
//     shard's chunks fold while later shards are still streaming.
type PartialAccumulator struct {
	site   *FragmentSite
	want   vector.Schema // fragment root schema, checked per chunk
	shards int

	mu   sync.Mutex
	done []bool

	// MergeConcat state: one column-buffer set per shard slot.
	slots [][]colBuf

	// MergePartialAgg state: queued chunks per shard, the fold frontier,
	// and the persistent group accumulator.
	pending [][]*engine.Table
	next    int
	fold    *aggFold
}

// NewAccumulator returns an empty accumulator for a fleet of the given
// size.
func (s *FragmentSite) NewAccumulator(shards int) *PartialAccumulator {
	a := &PartialAccumulator{
		site:   s,
		want:   s.Fragment.MainRoot().sch,
		shards: shards,
		done:   make([]bool, shards),
	}
	if s.merge == MergeConcat {
		a.slots = make([][]colBuf, shards)
		for i := range a.slots {
			a.slots[i] = newColBufs(a.want)
		}
	} else {
		a.pending = make([][]*engine.Table, shards)
		a.fold = newAggFold(s)
	}
	return a
}

// AddChunk folds one partial chunk from one shard. Chunks from a single
// shard must arrive in row order; shards may interleave freely.
func (a *PartialAccumulator) AddChunk(shard int, chunk *engine.Table) error {
	if err := schemaMatches(chunk.Sch, a.want); err != nil {
		return fmt.Errorf("plan: merge %s: shard %d: %w", a.site.Node.label, shard, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if shard < 0 || shard >= a.shards {
		return fmt.Errorf("plan: merge %s: shard %d out of range [0,%d)", a.site.Node.label, shard, a.shards)
	}
	if a.done[shard] {
		return fmt.Errorf("plan: merge %s: chunk after FinishShard(%d)", a.site.Node.label, shard)
	}
	if a.site.merge == MergeConcat {
		for ci := range a.want {
			if err := a.slots[shard][ci].appendRows(chunk.Cols[ci], chunk.Rows()); err != nil {
				return fmt.Errorf("plan: merge %s: shard %d: %w", a.site.Node.label, shard, err)
			}
		}
		return nil
	}
	a.pending[shard] = append(a.pending[shard], chunk)
	return nil
}

// FinishShard marks a shard's stream complete. For aggregate sites it
// advances the fold frontier: every queued chunk of every consecutive
// finished shard folds into the group accumulator, in shard order.
func (a *PartialAccumulator) FinishShard(shard int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if shard < 0 || shard >= a.shards {
		return fmt.Errorf("plan: merge %s: shard %d out of range [0,%d)", a.site.Node.label, shard, a.shards)
	}
	if a.done[shard] {
		return fmt.Errorf("plan: merge %s: FinishShard(%d) twice", a.site.Node.label, shard)
	}
	a.done[shard] = true
	if a.site.merge != MergePartialAgg {
		return nil
	}
	for a.next < a.shards && a.done[a.next] {
		for _, chunk := range a.pending[a.next] {
			if err := a.fold.foldTable(chunk); err != nil {
				return err
			}
		}
		a.pending[a.next] = nil
		a.next++
	}
	return nil
}

// Result assembles the merged table once every shard has finished.
func (a *PartialAccumulator) Result() (*engine.Table, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, d := range a.done {
		if !d {
			return nil, fmt.Errorf("plan: merge %s: Result before shard %d finished", a.site.Node.label, i)
		}
	}
	if a.site.merge == MergeConcat {
		return a.concatResult()
	}
	return a.fold.result()
}

// concatResult stacks the shard slots in order, preserving global row
// order because shard ranges partition the base table contiguously.
func (a *PartialAccumulator) concatResult() (*engine.Table, error) {
	sch := a.site.Node.sch
	cols := make([]*vector.Vector, len(sch))
	for ci := range sch {
		v, err := concatColumn(a.slots, ci)
		if err != nil {
			return nil, fmt.Errorf("plan: concat %s: %w", a.site.Node.label, err)
		}
		cols[ci] = v
	}
	return engine.NewTable(a.site.Node.label, sch, cols), nil
}

// colBuf accumulates one column of one shard's concatenated partials in
// its native width.
type colBuf struct {
	t   vector.Type
	i16 []int16
	i32 []int32
	i64 []int64
	f64 []float64
	str []string
}

func newColBufs(sch vector.Schema) []colBuf {
	bufs := make([]colBuf, len(sch))
	for i, c := range sch {
		bufs[i].t = c.Type
	}
	return bufs
}

// appendRows appends the first rows values of v.
func (b *colBuf) appendRows(v *vector.Vector, rows int) error {
	switch b.t {
	case vector.I16:
		b.i16 = append(b.i16, v.I16()[:rows]...)
	case vector.I32:
		b.i32 = append(b.i32, v.I32()[:rows]...)
	case vector.I64:
		b.i64 = append(b.i64, v.I64()[:rows]...)
	case vector.F64:
		b.f64 = append(b.f64, v.F64()[:rows]...)
	case vector.Str:
		b.str = append(b.str, v.Str()[:rows]...)
	default:
		return fmt.Errorf("unsupported column type %s", b.t)
	}
	return nil
}

// concatColumn splices column ci of every shard slot, in shard order, into
// one vector.
func concatColumn(slots [][]colBuf, ci int) (*vector.Vector, error) {
	switch t := slots[0][ci].t; t {
	case vector.I16:
		var out []int16
		for si := range slots {
			out = append(out, slots[si][ci].i16...)
		}
		return vector.FromI16(out), nil
	case vector.I32:
		var out []int32
		for si := range slots {
			out = append(out, slots[si][ci].i32...)
		}
		return vector.FromI32(out), nil
	case vector.I64:
		var out []int64
		for si := range slots {
			out = append(out, slots[si][ci].i64...)
		}
		return vector.FromI64(out), nil
	case vector.F64:
		var out []float64
		for si := range slots {
			out = append(out, slots[si][ci].f64...)
		}
		return vector.FromF64(out), nil
	case vector.Str:
		var out []string
		for si := range slots {
			out = append(out, slots[si][ci].str...)
		}
		return vector.FromStr(out), nil
	default:
		return nil, fmt.Errorf("unsupported column type %s", t)
	}
}

func schemaMatches(have, want vector.Schema) error {
	if len(have) != len(want) {
		return fmt.Errorf("schema has %d columns, want %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			return fmt.Errorf("column %d is %s %s, want %s %s",
				i, have[i].Name, have[i].Type, want[i].Name, want[i].Type)
		}
	}
	return nil
}

// aggFold is the persistent group accumulator behind MergePartialAgg
// sites. Groups are discovered in (shard order, partial row order) — the
// caller feeds tables in shard order — which equals the global first-seen
// order of a single-process HashAgg; a group's group-column and
// first-aggregate values come from the first partial that contains it.
// Rows are keyed by the engine's own KeyCoder, so the merge groups exactly
// the tuples a single-process HashAgg does.
type aggFold struct {
	site *FragmentSite
	// One accumulator per OUTPUT column: group columns first, then one per
	// original aggregate (avg folds two partial columns into one output).
	accs  []partialAcc
	cnts  [][]int64 // avg counts, folded separately
	coder *engine.KeyCoder
	ids   *primitive.GroupTableI64 // key -> dense first-seen group id
	keys  []int64
}

func newAggFold(s *FragmentSite) *aggFold {
	groupCols := make([]int, s.groupCols) // a partial leads with its group columns
	for ci := range groupCols {
		groupCols[ci] = ci
	}
	return &aggFold{
		site:  s,
		accs:  make([]partialAcc, len(s.Node.sch)),
		cnts:  make([][]int64, len(s.aggs)),
		coder: engine.NewKeyCoder(s.Node.sch, groupCols),
		ids:   primitive.NewGroupTableI64(64),
	}
}

// foldTable folds one partial table's rows into the accumulator.
func (f *aggFold) foldTable(p *engine.Table) error {
	s := f.site
	sch := s.Node.sch
	if len(f.keys) < p.Rows() {
		f.keys = make([]int64, p.Rows())
	}
	f.coder.Encode(p.Cols, nil, p.Rows(), f.keys)
	for row := 0; row < p.Rows(); row++ {
		known := f.ids.Groups()
		g := int(f.ids.InsertCheck(f.keys[row]))
		seen := g < known
		if !seen {
			// Capture first-seen group column values.
			for ci := 0; ci < s.groupCols; ci++ {
				switch sch[ci].Type {
				case vector.I64:
					f.accs[ci].i64 = append(f.accs[ci].i64, p.Cols[ci].I64()[row])
				case vector.F64:
					f.accs[ci].f64 = append(f.accs[ci].f64, p.Cols[ci].F64()[row])
				case vector.Str:
					f.accs[ci].str = append(f.accs[ci].str, p.Cols[ci].Str()[row])
				}
			}
		}
		for ai, m := range s.aggs {
			oc := s.groupCols + ai
			acc := &f.accs[oc]
			switch m.fn {
			case engine.AggAvg:
				if !seen {
					acc.i64 = append(acc.i64, 0)
					f.cnts[ai] = append(f.cnts[ai], 0)
				}
				acc.i64[g] += p.Cols[m.col].I64()[row]
				f.cnts[ai][g] += p.Cols[m.cntCol].I64()[row]
			case engine.AggCount:
				if !seen {
					acc.i64 = append(acc.i64, 0)
				}
				acc.i64[g] += p.Cols[m.col].I64()[row]
			case engine.AggSum:
				if !seen {
					acc.i64 = append(acc.i64, 0)
				}
				acc.i64[g] += p.Cols[m.col].I64()[row]
			case engine.AggMin, engine.AggMax:
				foldMinMax(acc, p.Cols[m.col], row, g, seen, m.fn == engine.AggMin)
			case engine.AggFirst:
				if !seen {
					switch p.Cols[m.col].Type() {
					case vector.I64:
						acc.i64 = append(acc.i64, p.Cols[m.col].I64()[row])
					case vector.F64:
						acc.f64 = append(acc.f64, p.Cols[m.col].F64()[row])
					case vector.Str:
						acc.str = append(acc.str, p.Cols[m.col].Str()[row])
					}
				}
			default:
				return fmt.Errorf("plan: merge %s: unmergeable aggregate %q", s.Node.label, m.fn)
			}
		}
	}
	return nil
}

// result finalizes the fold: avg divides sum by count, everything else
// materializes its native accumulator.
func (f *aggFold) result() (*engine.Table, error) {
	s := f.site
	sch := s.Node.sch
	groups := f.ids.Groups()
	cols := make([]*vector.Vector, len(sch))
	for ci, c := range sch {
		acc := &f.accs[ci]
		ai := ci - s.groupCols
		if ai >= 0 && s.aggs[ai].fn == engine.AggAvg {
			out := make([]float64, groups)
			for g := 0; g < groups; g++ {
				if n := f.cnts[ai][g]; n > 0 {
					out[g] = float64(acc.i64[g]) / float64(n)
				}
			}
			cols[ci] = vector.FromF64(out)
			continue
		}
		switch c.Type {
		case vector.I64:
			cols[ci] = vector.FromI64(sized(acc.i64, groups))
		case vector.F64:
			cols[ci] = vector.FromF64(sized(acc.f64, groups))
		case vector.Str:
			cols[ci] = vector.FromStr(sized(acc.str, groups))
		default:
			return nil, fmt.Errorf("plan: merge %s: unsupported output type %s", s.Node.label, c.Type)
		}
	}
	return engine.NewTable(s.Node.label, sch, cols), nil
}

// partialAcc accumulates one merged output column in its native domain.
type partialAcc struct {
	i64 []int64
	f64 []float64
	str []string
}

// foldMinMax folds one min/max partial value in the accumulator's native
// numeric domain.
func foldMinMax(acc *partialAcc, v *vector.Vector, row, g int, seen, isMin bool) {
	if v.Type() == vector.F64 {
		x := v.F64()[row]
		if !seen {
			acc.f64 = append(acc.f64, x)
			return
		}
		if (isMin && x < acc.f64[g]) || (!isMin && x > acc.f64[g]) {
			acc.f64[g] = x
		}
		return
	}
	x := v.I64()[row]
	if !seen {
		acc.i64 = append(acc.i64, x)
		return
	}
	if (isMin && x < acc.i64[g]) || (!isMin && x > acc.i64[g]) {
		acc.i64[g] = x
	}
}

// sized pads-or-trims an accumulator to the group count (a group whose
// accumulator never appended — impossible today — would surface as a
// mismatch here rather than as silent corruption).
func sized[T any](v []T, groups int) []T {
	if len(v) != groups {
		out := make([]T, groups)
		copy(out, v)
		return out
	}
	return v
}
