package engine

import (
	"math"

	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// AggFn enumerates the aggregate functions.
type AggFn string

// Aggregate functions supported by HashAgg.
const (
	AggSum   AggFn = "sum"
	AggCount AggFn = "count"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
	AggAvg   AggFn = "avg"
	AggFirst AggFn = "first" // first value per group (functionally dependent columns)
)

// AggSpec is one aggregate output: Fn over column Col (ignored for count),
// named As.
type AggSpec struct {
	Fn  AggFn
	Col int
	As  string
}

// Agg builds an AggSpec.
func Agg(fn AggFn, col int, as string) AggSpec { return AggSpec{Fn: fn, Col: col, As: as} }

// HashAgg is the blocking hash-aggregation operator. Group ids are
// assigned by vectorized hash_insertcheck primitives (Figure 4e);
// aggregates are maintained by vectorized aggr update primitives
// (Figure 4b). One string or integer group column is keyed directly; any
// other key goes through a KeyCoder, whose int64 key per tuple
// hash_insertcheck_slng_col turns into the dense first-seen group id.
type HashAgg struct {
	sess      *core.Session
	child     Operator
	label     string
	groupCols []int
	aggs      []AggSpec

	sch    vector.Schema
	result *Table
	scan   *Scan

	// key state
	tabI64 *primitive.GroupTableI64
	tabStr *primitive.GroupTableStr
	coder  *KeyCoder

	// per-aggregate accumulators
	accI64 []*primitive.AccI64
	accF64 []*primitive.AccF64

	// first-value capture for group columns and AggFirst specs
	firstGroup []capture
	firstAgg   []*capture // per aggregate; nil unless the spec is AggFirst
}

// capture stores first-seen per-group values of one column.
type capture struct {
	t    vector.Type
	i64s []int64
	f64s []float64
	strs []string
}

func (cp *capture) add(v *vector.Vector, i int32) {
	switch cp.t {
	case vector.I16:
		cp.i64s = append(cp.i64s, int64(v.I16()[i]))
	case vector.I32:
		cp.i64s = append(cp.i64s, int64(v.I32()[i]))
	case vector.I64:
		cp.i64s = append(cp.i64s, v.I64()[i])
	case vector.F64:
		cp.f64s = append(cp.f64s, v.F64()[i])
	case vector.Str:
		cp.strs = append(cp.strs, v.Str()[i])
	}
}

func (cp *capture) len() int {
	switch cp.t {
	case vector.F64:
		return len(cp.f64s)
	case vector.Str:
		return len(cp.strs)
	default:
		return len(cp.i64s)
	}
}

// outType is the result-column type of the capture (ints widen to I64).
func (cp *capture) outType() vector.Type {
	switch cp.t {
	case vector.I16, vector.I32:
		return vector.I64
	default:
		return cp.t
	}
}

func (cp *capture) toVector() *vector.Vector {
	switch cp.outType() {
	case vector.F64:
		return vector.FromF64(cp.f64s)
	case vector.Str:
		return vector.FromStr(cp.strs)
	default:
		return vector.FromI64(cp.i64s)
	}
}

// NewHashAgg builds a hash aggregation grouping on groupCols (may be
// empty for a global aggregate) computing aggs.
func NewHashAgg(sess *core.Session, child Operator, label string, groupCols []int, aggs ...AggSpec) *HashAgg {
	return &HashAgg{sess: sess, child: child, label: label, groupCols: groupCols, aggs: aggs}
}

// Schema implements Operator: group columns (ints widened to I64) followed
// by the aggregates.
func (h *HashAgg) Schema() vector.Schema {
	if h.sch == nil {
		h.sch = AggOutputSchema(h.child.Schema(), h.groupCols, h.aggs)
	}
	return h.sch
}

// AggOutputSchema computes the result schema of a hash aggregation over in:
// the group columns (integers widened to I64) followed by one column per
// aggregate. The logical planner uses it to type plans without building
// operators, so it must stay the single source of truth for HashAgg.
func AggOutputSchema(in vector.Schema, groupCols []int, aggs []AggSpec) vector.Schema {
	var sch vector.Schema
	for _, gc := range groupCols {
		t := in[gc].Type
		if t == vector.I16 || t == vector.I32 {
			t = vector.I64
		}
		sch = append(sch, vector.Col{Name: in[gc].Name, Type: t})
	}
	for _, a := range aggs {
		sch = append(sch, vector.Col{Name: a.As, Type: aggType(in, a)})
	}
	return sch
}

func aggType(in vector.Schema, a AggSpec) vector.Type {
	switch a.Fn {
	case AggCount:
		return vector.I64
	case AggAvg:
		return vector.F64
	case AggFirst:
		t := in[a.Col].Type
		if t == vector.I16 || t == vector.I32 {
			return vector.I64
		}
		return t
	default:
		return primitive.AggrValueType(in[a.Col].Type)
	}
}

// Open implements Operator.
func (h *HashAgg) Open() error { return h.child.Open() }

// Next implements Operator: the first call drains the child and builds the
// result; subsequent calls stream it.
func (h *HashAgg) Next() (*vector.Batch, error) {
	if h.result == nil {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	return h.scan.Next()
}

// Close implements Operator.
func (h *HashAgg) Close() { h.child.Close() }

func (h *HashAgg) build() error {
	in := h.child.Schema()
	vecSize := h.sess.VectorSize

	// Key strategy: one string or integer column keys the table directly,
	// anything else is coded into one int64 key per tuple.
	keyKind := "none"
	switch {
	case len(h.groupCols) == 0:
	case len(h.groupCols) == 1 && in[h.groupCols[0]].Type == vector.Str:
		keyKind = "str"
		h.tabStr = primitive.NewGroupTableStr(64)
	case len(h.groupCols) == 1 && in[h.groupCols[0]].Type != vector.F64:
		keyKind = "i64"
		h.tabI64 = primitive.NewGroupTableI64(64)
	default:
		keyKind = "codes"
		h.tabI64 = primitive.NewGroupTableI64(64)
		h.coder = NewKeyCoder(in, h.groupCols)
	}

	var insertInst *core.Instance
	switch keyKind {
	case "i64", "codes":
		insertInst = h.sess.Instance("hash_insertcheck_slng_col", h.label+"/hash_insertcheck_slng_col#0")
	case "str":
		insertInst = h.sess.Instance("hash_insertcheck_str_col", h.label+"/hash_insertcheck_str_col#0")
	}

	// Aggregate state.
	h.accI64 = make([]*primitive.AccI64, len(h.aggs))
	h.accF64 = make([]*primitive.AccF64, len(h.aggs))
	avgCount := make([]*primitive.AccI64, len(h.aggs))
	h.firstAgg = make([]*capture, len(h.aggs))
	aggInsts := make([]*core.Instance, len(h.aggs))
	avgCntInsts := make([]*core.Instance, len(h.aggs))
	for ai, a := range h.aggs {
		switch a.Fn {
		case AggFirst:
			h.firstAgg[ai] = &capture{t: in[a.Col].Type}
			continue
		case AggCount:
			h.accI64[ai] = &primitive.AccI64{}
			aggInsts[ai] = h.sess.Instance("aggr_count_col", labelf("%s/aggr_count_col#%d", h.label, ai))
			continue
		}
		vt := primitive.AggrValueType(in[a.Col].Type)
		fnName := string(a.Fn)
		if a.Fn == AggAvg {
			fnName = "sum"
			avgCount[ai] = &primitive.AccI64{}
			avgCntInsts[ai] = h.sess.Instance("aggr_count_col", labelf("%s/aggr_count_col#avg%d", h.label, ai))
		}
		if vt == vector.F64 {
			h.accF64[ai] = &primitive.AccF64{}
			sig := "aggr_" + fnName + "_dbl_col"
			aggInsts[ai] = h.sess.Instance(sig, labelf("%s/%s#%d", h.label, sig, ai))
		} else {
			h.accI64[ai] = &primitive.AccI64{}
			sig := "aggr_" + fnName + "_slng_col"
			aggInsts[ai] = h.sess.Instance(sig, labelf("%s/%s#%d", h.label, sig, ai))
		}
	}

	// First-value capture of group columns.
	h.firstGroup = make([]capture, len(h.groupCols))
	for gi, gc := range h.groupCols {
		h.firstGroup[gi].t = in[gc].Type
	}

	keyScratch := vector.New(vector.I64, vecSize)
	gidVec := vector.New(vector.I32, vecSize)
	widenScratch := vector.New(vector.I64, vecSize)
	// Reused for every batch: the call record and its input array.
	var (
		call core.Call
		args [2]*vector.Vector
	)

	for {
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.Live() == 0 {
			continue
		}
		if b.N > keyScratch.Cap() {
			// Same guard as Select/HashJoin: an over-wide child batch must
			// grow the scratch, not write past it.
			keyScratch = vector.New(vector.I64, b.N)
			gidVec = vector.New(vector.I32, b.N)
			widenScratch = vector.New(vector.I64, b.N)
		}

		// 1. Group ids.
		var gids *vector.Vector
		groups := 1
		switch keyKind {
		case "none":
			gids = nil
		case "i64", "codes":
			if keyKind == "i64" {
				primitive.WidenToI64(b.Cols[h.groupCols[0]], b.Sel, b.N, keyScratch)
			} else {
				h.coder.Encode(b.Cols, b.Sel, b.N, keyScratch.I64())
				keyScratch.SetLen(b.N)
				h.sess.Ctx.OperatorCycles += h.coder.Cycles(b.Live())
			}
			args[0] = keyScratch
			call = core.Call{N: b.N, Sel: b.Sel, In: args[:1], Res: gidVec, Aux: h.tabI64}
			insertInst.Run(h.sess.Ctx, &call)
			gids = gidVec
			groups = h.tabI64.Groups()
		case "str":
			args[0] = b.Cols[h.groupCols[0]]
			call = core.Call{N: b.N, Sel: b.Sel, In: args[:1], Res: gidVec, Aux: h.tabStr}
			insertInst.Run(h.sess.Ctx, &call)
			gids = gidVec
			groups = h.tabStr.Groups()
		}

		// 2. Capture first-seen group column values.
		h.captureFirst(b, gids, groups)

		// 3. Aggregate updates.
		for ai, a := range h.aggs {
			if a.Fn == AggFirst {
				continue
			}
			if acc := h.accI64[ai]; acc != nil {
				init := int64(0)
				switch a.Fn {
				case AggMin:
					init = math.MaxInt64
				case AggMax:
					init = math.MinInt64
				}
				acc.Grow(groups, init)
			}
			if acc := h.accF64[ai]; acc != nil {
				init := 0.0
				switch a.Fn {
				case AggMin:
					init = math.Inf(1)
				case AggMax:
					init = math.Inf(-1)
				}
				acc.Grow(groups, init)
			}
			args[1] = gids
			call = core.Call{N: b.N, Sel: b.Sel, In: args[:]}
			switch {
			case a.Fn == AggCount:
				args[0], call.Aux = nil, h.accI64[ai]
			case h.accF64[ai] != nil:
				args[0], call.Aux = b.Cols[a.Col], h.accF64[ai]
			default:
				primitive.WidenToI64(b.Cols[a.Col], b.Sel, b.N, widenScratch)
				args[0], call.Aux = widenScratch, h.accI64[ai]
			}
			aggInsts[ai].Run(h.sess.Ctx, &call)
			if a.Fn == AggAvg {
				avgCount[ai].Grow(groups, 0)
				args[0] = nil
				call = core.Call{N: b.N, Sel: b.Sel, In: args[:], Aux: avgCount[ai]}
				avgCntInsts[ai].Run(h.sess.Ctx, &call)
			}
		}
		chargeOp(h.sess, perBatchOverhead)
	}

	// Finalize.
	groups := 1
	switch keyKind {
	case "i64", "codes":
		groups = h.tabI64.Groups()
	case "str":
		groups = h.tabStr.Groups()
	}
	if keyKind == "none" {
		// Global aggregate: exactly one group even with no input.
		for ai, a := range h.aggs {
			if acc := h.accI64[ai]; acc != nil {
				init := int64(0)
				switch a.Fn {
				case AggMin:
					init = math.MaxInt64
				case AggMax:
					init = math.MinInt64
				}
				acc.Grow(1, init)
			}
			if acc := h.accF64[ai]; acc != nil {
				acc.Grow(1, 0)
			}
			if avgCount[ai] != nil {
				avgCount[ai].Grow(1, 0)
			}
		}
	}

	sch := h.Schema()
	cols := make([]*vector.Vector, 0, len(sch))
	for gi := range h.groupCols {
		cols = append(cols, h.firstGroup[gi].toVector())
	}
	for ai, a := range h.aggs {
		switch {
		case a.Fn == AggFirst:
			cols = append(cols, h.firstAgg[ai].toVector())
		case a.Fn == AggAvg:
			out := make([]float64, groups)
			cnt := avgCount[ai].Acc
			if h.accF64[ai] != nil {
				for g := 0; g < groups; g++ {
					if cnt[g] > 0 {
						out[g] = h.accF64[ai].Acc[g] / float64(cnt[g])
					}
				}
			} else {
				for g := 0; g < groups; g++ {
					if cnt[g] > 0 {
						out[g] = float64(h.accI64[ai].Acc[g]) / float64(cnt[g])
					}
				}
			}
			cols = append(cols, vector.FromF64(out))
		case h.accF64[ai] != nil:
			cols = append(cols, vector.FromF64(h.accF64[ai].Acc[:groups]))
		default:
			cols = append(cols, vector.FromI64(h.accI64[ai].Acc[:groups]))
		}
	}
	h.result = NewTable(h.label, sch, cols)
	h.scan = NewScan(h.sess, h.result)
	return h.scan.Open()
}

// captureFirst records group-column (and AggFirst) values the first time
// each group id appears; insertcheck assigns dense ids in first-seen
// order, so a value belongs to a new group exactly when gid == captured.
func (h *HashAgg) captureFirst(b *vector.Batch, gids *vector.Vector, groups int) {
	capture1 := func(i int32) {
		g := int32(0)
		if gids != nil {
			g = gids.I32()[i]
		}
		for gi, gc := range h.groupCols {
			if int(g) == h.firstGroup[gi].len() {
				h.firstGroup[gi].add(b.Cols[gc], i)
			}
		}
		for ai, cp := range h.firstAgg {
			if cp != nil && int(g) == cp.len() {
				cp.add(b.Cols[h.aggs[ai].Col], i)
			}
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			capture1(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			capture1(int32(i))
		}
	}
}
