package engine

import (
	"math"

	"microadapt/internal/bloom"
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// JoinKind selects join semantics.
type JoinKind int

const (
	// InnerJoin emits probe tuples with matching build payload columns.
	InnerJoin JoinKind = iota
	// SemiJoin emits probe tuples that have a match (no build columns).
	SemiJoin
	// AntiJoin emits probe tuples without a match (no build columns).
	AntiJoin
)

// Join strategy arm names. Arm 0 is always the planner's historical
// default — bloomhash when the plan carries a bloom hint, plain hash
// otherwise — so a fixed:arm=0 policy (and a cold bandit's first sweep
// step) reproduces exactly the physical behavior plans had before the
// strategy became a decision. AntiJoin decisions carry no bloomhash arm: a
// bloom pre-filter discards probe keys that cannot match, which is
// exactly the population an anti join must keep.
var (
	joinStrategies      = []string{"hash", "merge", "bloomhash"}
	joinStrategiesBloom = []string{"bloomhash", "hash", "merge"}
	joinStrategiesAnti  = []string{"hash", "merge"}
)

// Join joins a probe stream against a materialized build side on single
// integer key columns with unique build keys (the PK side of a PK-FK join,
// which is every hash-family join in our TPC-H plans). The physical plan
// no longer fixes the algorithm: *how* to join is an operator-level
// decision resolved at Open on the session's decision registry, by the
// same policy that picks primitive flavors one level down. The arms:
//
//   - hash:      build a JoinTable, probe with sel_htlookup_slng_col.
//   - merge:     sort the build side's (key, row) pairs, probe with the
//     binary-search primitive sel_bsearch_slng_col.
//   - bloomhash: hash, behind a bloom pre-filter (the loop-fission
//     primitive of Table 8 / Figure 11d).
//
// Every arm returns the lowest matching build row per probe tuple, so the
// query result is bit-identical whichever arm the policy explores; only
// the cost moves. The hash arms consult a second decision, ht-sizing,
// that places the table on the probes-versus-cache-misses curve (see
// primitive.JoinSizings). Probing stays fully vectorized: pre-filter,
// lookup, one fetch primitive per payload column.
type Join struct {
	sess     *core.Session
	build    Operator
	probe    Operator
	label    string
	kind     JoinKind
	buildKey string // key column name on build side
	probeKey string // key column name on probe side
	payload  []string
	bitsPer  int // bloomhash arm's bits per build key (hint; default 8)

	sch        vector.Schema
	buildTab   *Table
	joinTab    *primitive.JoinTable
	sortTab    *primitive.SortedTable
	filter     *bloom.Filter
	bloomInst  *core.Instance
	lookupInst *core.Instance
	fetchInsts []*core.Instance
	payloadIdx []int

	strategyDec *core.Decision
	sizingDec   *core.Decision
	buildCost   float64 // operator cycles spent building the chosen structure
	probeTuples int     // live probe tuples seen by Next
	baseCycles  float64 // probe-instance cycles predating this Open
	observed    bool

	keyScratch  *vector.Vector
	rowScratch  *vector.Vector
	selA, selB  []int32
	probeKeyIdx int // probe-side key column, resolved once in Open

	out          vector.Batch     // the batch every Next re-fills; out.Sel aliases selB
	fetchRes     []*vector.Vector // per-payload result vectors
	emptyPayload []*vector.Vector // zero-length payload columns, built on the first empty batch
	call         core.Call        // reused for every primitive call
	in           [2]*vector.Vector
}

// JoinOption configures a Join.
type JoinOption func(*Join)

// WithBloom sets the bits per build key the bloomhash arm uses (8 when
// unset). It is a hint for one arm, not a mandate: the strategy decision
// still chooses whether the filter is worth building.
func WithBloom(bitsPerKey int) JoinOption {
	return func(h *Join) { h.bitsPer = bitsPerKey }
}

// WithKind sets the join semantics (default InnerJoin).
func WithKind(k JoinKind) JoinOption {
	return func(h *Join) { h.kind = k }
}

// NewJoin builds a join. payload names build-side columns to append to the
// probe schema (inner joins only).
func NewJoin(sess *core.Session, build, probe Operator, label, buildKey, probeKey string, payload []string, opts ...JoinOption) *Join {
	h := &Join{
		sess: sess, build: build, probe: probe, label: label,
		buildKey: buildKey, probeKey: probeKey, payload: payload,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Schema implements Operator: probe columns, then payload columns.
func (h *Join) Schema() vector.Schema {
	if h.sch != nil {
		return h.sch
	}
	h.sch = append(h.sch, h.probe.Schema()...)
	if h.kind == InnerJoin {
		bs := h.build.Schema()
		for _, name := range h.payload {
			h.sch = append(h.sch, bs[bs.MustIndexOf(name)])
		}
	}
	return h.sch
}

// JoinStrategyArms returns the strategy-decision arm set a Join with the
// given kind and bloom hint will enumerate — the planner's explain output
// renders it so plans show the decision point instead of a baked-in
// algorithm.
func JoinStrategyArms(kind JoinKind, bloomBits int) []string {
	return (&Join{kind: kind, bitsPer: bloomBits}).strategies()
}

// strategies returns the arm set for this join's kind and hints.
func (h *Join) strategies() []string {
	if h.kind == AntiJoin {
		return joinStrategiesAnti
	}
	if h.bitsPer > 0 {
		return joinStrategiesBloom
	}
	return joinStrategies
}

// buildFeatures summarizes the materialized build side for the strategy
// decision: Selectivity carries cache pressure (the miss ratio a probe
// structure of this cardinality would see against the LLC — the feature
// the hash-versus-merge tradeoff actually pivots on), Sortedness the
// fraction of adjacent non-descending key pairs. Both are O(rows) over
// data the operator just materialized anyway.
func buildFeatures(m *hw.Machine, keys []int64) core.Features {
	f := core.Features{Valid: true, Sortedness: 1, DistinctRatio: 1}
	f.Selectivity = hw.MissRatio(12*len(keys), m.LLCBytes)
	if len(keys) > 1 {
		asc := 0
		for i := 1; i < len(keys); i++ {
			if keys[i] >= keys[i-1] {
				asc++
			}
		}
		f.Sortedness = float64(asc) / float64(len(keys)-1)
	}
	return f
}

// Open implements Operator: drains the build side, resolves the strategy
// and sizing decisions, and builds the chosen probe structure.
// (Materialize opens and closes the build child.)
func (h *Join) Open() error {
	tab, err := Materialize(h.build)
	if err != nil {
		return err
	}
	h.buildTab = tab

	keyCol := tab.Col(h.buildKey)
	keys := make([]int64, tab.Rows())
	kv := vector.FromI64(keys)
	primitive.WidenToI64(keyCol, nil, tab.Rows(), kv)

	arms := h.strategies()
	h.strategyDec = h.sess.Decision("join-strategy", h.label+"/strategy", arms)
	arm := arms[h.strategyDec.Choose(buildFeatures(h.sess.Machine, keys))]
	h.joinTab, h.sortTab, h.filter = nil, nil, nil
	h.bloomInst, h.sizingDec = nil, nil
	h.probeTuples, h.observed = 0, false

	// Build-side indexing is operator work, not a studied primitive; each
	// arm charges its own build. The charge also flows into the decision's
	// cost signal at Close, so an arm cannot hide an expensive build
	// behind a cheap probe.
	rows := float64(tab.Rows())
	sig := ""
	if arm == "merge" {
		h.sortTab = primitive.NewSortedTable(keys)
		h.buildCost = 1.2 * rows * math.Log2(rows+2)
		sig = "sel_bsearch_slng_col"
		if h.kind == AntiJoin {
			sig = "sel_bsearchmiss_slng_col"
		}
	} else {
		h.sizingDec = h.sess.Decision("ht-sizing", h.label+"/sizing", primitive.JoinSizings)
		sizing := primitive.JoinSizings[h.sizingDec.Choose(core.Features{})]
		h.joinTab = primitive.NewJoinTableSized(keys, sizing)
		h.buildCost = 8 * rows
		if arm == "bloomhash" {
			bits := h.bitsPer
			if bits <= 0 {
				bits = 8
			}
			h.filter = bloom.New(tab.Rows()*bits/8, 2)
			for _, k := range keys {
				h.filter.Add(k)
			}
			h.buildCost += 6 * rows
			h.bloomInst = h.sess.Instance("sel_bloomfilter_slng_col", h.label+"/sel_bloomfilter_slng_col#0")
		}
		sig = "sel_htlookup_slng_col"
		if h.kind == AntiJoin {
			sig = "sel_htmiss_slng_col"
		}
	}
	chargeOp(h.sess, h.buildCost)
	h.lookupInst = h.sess.Instance(sig, h.label+"/"+sig+"#0")
	h.baseCycles = h.lookupInst.Cycles
	if h.bloomInst != nil {
		h.baseCycles += h.bloomInst.Cycles
	}

	if h.kind == InnerJoin {
		h.fetchInsts = make([]*core.Instance, len(h.payload))
		h.payloadIdx = make([]int, len(h.payload))
		h.fetchRes = make([]*vector.Vector, len(h.payload))
		for i, name := range h.payload {
			idx := tab.Sch.MustIndexOf(name)
			h.payloadIdx[i] = idx
			fsig := primitive.FetchSig(tab.Sch[idx].Type)
			h.fetchInsts[i] = h.sess.Instance(fsig, labelf("%s/%s#%d", h.label, fsig, i))
		}
	}
	h.out.Cols = make([]*vector.Vector, len(h.Schema()))

	vs := h.sess.VectorSize
	h.keyScratch = vector.New(vector.I64, vs)
	h.rowScratch = vector.New(vector.I32, vs)
	h.selA = make([]int32, vs)
	h.selB = make([]int32, vs)
	// Resolve the probe key once: a schema lookup is a linear name scan,
	// far too slow to repeat on every Next batch.
	h.probeKeyIdx = h.probe.Schema().MustIndexOf(h.probeKey)
	return h.probe.Open()
}

// probeAux returns the probe structure of the chosen arm.
func (h *Join) probeAux() interface{} {
	if h.sortTab != nil {
		return h.sortTab
	}
	return h.joinTab
}

// Next implements Operator. Empty probe batches pass through without any
// primitive calls.
func (h *Join) Next() (*vector.Batch, error) {
	b, err := h.probe.Next()
	if err != nil || b == nil {
		return nil, err
	}
	np := copy(h.out.Cols, b.Cols)
	if b.Live() == 0 {
		if h.emptyPayload == nil {
			for _, idx := range h.payloadIdx {
				h.emptyPayload = append(h.emptyPayload, vector.New(h.buildTab.Sch[idx].Type, 0))
			}
		}
		copy(h.out.Cols[np:], h.emptyPayload)
		h.out.N, h.out.Sel = b.N, h.selB[:0]
		chargeOp(h.sess, perBatchOverhead)
		return &h.out, nil
	}
	if b.N > len(h.selA) {
		// Probe batches wider than the session's vector size (a child fed
		// from a materialized table of another session) would overflow the
		// key/row/selection scratch; grow it to the batch.
		h.keyScratch = vector.New(vector.I64, b.N)
		h.rowScratch = vector.New(vector.I32, b.N)
		h.selA = make([]int32, b.N)
		h.selB = make([]int32, b.N)
	}
	primitive.WidenToI64(b.Cols[h.probeKeyIdx], b.Sel, b.N, h.keyScratch)
	h.probeTuples += b.Live()

	sel := b.Sel
	call := &h.call
	h.in[0] = h.keyScratch
	if h.filter != nil {
		*call = core.Call{N: b.N, Sel: sel, In: h.in[:1], SelOut: h.selA, Aux: h.filter}
		k := h.bloomInst.Run(h.sess.Ctx, call)
		sel = h.selA[:k]
	}
	*call = core.Call{N: b.N, Sel: sel, In: h.in[:1], SelOut: h.selB, Res: h.rowScratch, Aux: h.probeAux()}
	k := h.lookupInst.Run(h.sess.Ctx, call)
	outSel := h.selB[:k]

	if h.kind == InnerJoin {
		h.in[0] = h.rowScratch
		for i, idx := range h.payloadIdx {
			src := h.buildTab.Cols[idx]
			h.fetchRes[i] = vector.Reuse(h.fetchRes[i], src.Type(), b.N)
			h.in[1] = src
			*call = core.Call{N: b.N, Sel: outSel, In: h.in[:], Res: h.fetchRes[i]}
			h.fetchInsts[i].Run(h.sess.Ctx, call)
			h.out.Cols[np+i] = h.fetchRes[i]
		}
	}
	h.out.N, h.out.Sel = b.N, outSel
	chargeOp(h.sess, perBatchOverhead)
	return &h.out, nil
}

// Close implements Operator: the decisions learn here, once the chosen
// strategy's full cost — build plus every probe cycle this Open accrued on
// the pre-filter and lookup instances — is known.
func (h *Join) Close() {
	if h.strategyDec != nil && !h.observed {
		h.observed = true
		cycles := h.lookupInst.Cycles
		if h.bloomInst != nil {
			cycles += h.bloomInst.Cycles
		}
		cycles += h.buildCost - h.baseCycles
		h.strategyDec.Observe(h.probeTuples, cycles)
		if h.sizingDec != nil {
			h.sizingDec.Observe(h.probeTuples, cycles)
		}
	}
	h.probe.Close()
}
