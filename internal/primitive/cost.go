// Package primitive implements the Vectorwise primitive library scoped to
// the classes the paper measures, together with every flavor axis the paper
// studies: branching vs no-branching selections (Listings 1-2), loop
// fission in the bloom-filter probe (Listings 5-6), selective vs full
// computation (Figure 7), hand unrolling (Listing 7), and the three
// compiler codegen profiles (Table 3).
//
// Every flavor computes its real result with real Go code; its virtual
// cycle cost is produced by the calibrated cost functions in this file,
// driven by the actual data the call processed (branch outcomes through the
// instance's predictor, selection densities, working-set sizes, type
// widths), so figures are deterministic on any host (docs/ARCHITECTURE.md).
package primitive

import (
	"microadapt/internal/core"
	"microadapt/internal/hw"
)

// Base per-element cost factors relative to Machine.ArithElem (a 32-bit
// multiply). Additions/subtractions are cheaper, divisions far slower.
const (
	opFactorAdd = 0.85
	opFactorSub = 0.85
	opFactorMul = 1.00
	opFactorDiv = 4.00

	cmpElem      = 0.90 // compare
	selStoreCost = 1.20 // append position to a selection vector
	nobranchDep  = 1.20 // loop-carried k += dependency of Listing 2
	fetchElem    = 1.10 // gather one value
	aggrElem     = 1.10 // accumulate one value
	hashElem     = 1.80 // one hash mix
	mjElem       = 1.40 // merge-join per consumed input tuple
	mjEmit       = 0.80 // merge-join per produced match
	bloomHash    = 2.20 // bf_hash
	bloomProbe   = 1.30 // bf_get excluding memory stall
	bloomFissPay = 0.60 // extra pass of the fission variant
	insertElem   = 3.50 // hash-table insert-check excluding memory stall
	probeMemMul  = 1.20 // memory stalls per insert-check probe
	groupMemMul  = 0.30 // memory stalls per grouped-aggregate update
	storePerByte = 0.06 // full-computation extra store traffic per byte
)

// variant captures the flavor axes that affect cost; each generated flavor
// closure carries one.
type variant struct {
	cg     *hw.Codegen
	unroll bool // hand unrolling (unroll 8)
	class  string
}

// loopOv is the per-iteration loop overhead of a scalar loop under this
// variant: hand unrolling removes it almost entirely; compiler unrolling
// (-funroll-loops) leaves a slightly larger residual (it cannot specialize
// the template body the way Listing 7 does).
func (v variant) loopOv(m *hw.Machine) float64 {
	switch {
	case v.unroll:
		return m.LoopOverhead * m.UnrollResidual
	case v.cg.AutoUnroll:
		return m.LoopOverhead * m.UnrollResidual * 2.6
	default:
		return m.LoopOverhead
	}
}

// callOv is the fixed per-call cost: the 8x-unrolled bodies bloat the
// instruction footprint, so hand-unrolled flavors pay a small i-cache
// penalty per call — which is why "no unroll" sometimes wins (Table 10).
func (v variant) callOv(m *hw.Machine) float64 {
	if v.unroll {
		return m.CallOverhead * 1.12
	}
	return m.CallOverhead
}

// unrollBias models the class-dependent net effect of 8x hand unrolling
// beyond loop overhead: arithmetic-dense kernels (merge join, aggregates)
// retire better unrolled, while pointer-chasing kernels (fetch, hashing)
// suffer from the 8x instruction footprint. This is the "sometimes better,
// sometimes worse, hard to predict" behaviour behind Table 10; map
// arithmetic carries no bias so Table 4's calibration stays exact.
func (v variant) unrollBias() float64 {
	if !v.unroll {
		return 1.0
	}
	switch v.class {
	case hw.ClassMergeJoin, hw.ClassAggr:
		return 0.95
	case hw.ClassFetch, hw.ClassHash, hw.ClassHashInsert:
		return 1.07
	case hw.ClassSelCmp:
		return 1.02
	default:
		return 1.0
	}
}

// mul is the codegen efficiency multiplier for this variant's class.
func (v variant) mul(m *hw.Machine) float64 { return v.cg.Mul(v.class, m) * v.unrollBias() }

// simdActive reports whether the compiler auto-vectorizes a dense loop of
// elements of the given width under this variant. Hand unrolling defeats
// auto-vectorization (the paper verified this in the generated assembly).
// Compilers vectorize whenever the flag allows it — including on machine 3,
// where the vector units make it a loss (Table 4) — but SSE-era ISAs have
// no 64-bit integer multiply, so 8-byte elements stay scalar (which is why
// mul_long never benefits from full computation in Figure 8).
func (v variant) simdActive(m *hw.Machine, typeWidth int) bool {
	return v.cg.AutoVectorize && !v.unroll && typeWidth < 8 && m.SIMDLanes(typeWidth) > 1
}

// gatherFactor is the slowdown of computing through a selection vector,
// adjusted by element width: narrow elements waste more of each fetched
// cache line, wide elements behave closer to sequential access.
func gatherFactor(m *hw.Machine, typeWidth int) float64 {
	f := m.SelAccessFactor
	switch {
	case typeWidth <= 2:
		return 1 + (f-1)*1.25
	case typeWidth >= 8:
		return 1 + (f-1)*0.45
	default:
		return f
	}
}

// denseLoopCost is the cost of a dense (no selection vector) loop over n
// elements with the given scalar per-element cost: the regime of Table 4.
func denseLoopCost(m *hw.Machine, v variant, n int, elem float64, typeWidth int) float64 {
	perElem := elem * v.mul(m)
	loop := v.loopOv(m)
	if v.simdActive(m, typeWidth) {
		lanes := float64(m.SIMDLanes(typeWidth))
		perElem /= m.SIMDSpeed(typeWidth)
		// The loop control amortizes over the lanes of each vector step.
		loop = m.LoopOverhead / lanes
		if v.cg.AutoUnroll {
			loop *= m.UnrollResidual
		}
	}
	return v.callOv(m) + float64(n)*(perElem+loop)
}

// selectiveLoopCost is the cost of computing only the k selected of n
// elements through a selection vector: gathers defeat SIMD.
func selectiveLoopCost(m *hw.Machine, v variant, k int, elem float64, typeWidth int) float64 {
	perElem := elem * gatherFactor(m, typeWidth) * v.mul(m)
	return v.callOv(m) + float64(k)*(perElem+v.loopOv(m))
}

// fullComputationCost is the cost of ignoring the selection vector and
// computing all n elements (Figure 7 right): dense SIMD-able loop plus the
// extra store traffic of the unneeded results. The full-computation
// template is generated without hand unrolling — "full computation
// trivially maps to SIMD, such that compilers generate it" (§2), and SIMD
// supersedes unrolling there.
func fullComputationCost(m *hw.Machine, v variant, n int, elem float64, typeWidth int) float64 {
	v.unroll = false
	return denseLoopCost(m, v, n, elem, typeWidth) + float64(n)*float64(typeWidth)*storePerByte
}

// selectionCost prices a branching selection: the branch outcomes already
// ran through the instance's 2-bit predictor, yielding mispredicts.
func selectionCost(ctx *core.ExecCtx, v variant, live, selected, mispredicts int) float64 {
	m := ctx.Machine
	return v.callOv(m) +
		float64(live)*(cmpElem*v.mul(m)+v.loopOv(m)) +
		float64(mispredicts)*m.BranchMissPenalty +
		float64(selected)*selStoreCost
}

// selectionNoBranchCost prices the branch-free variant of Listing 2: data-
// independent, every tuple pays compare + index arithmetic + store + the
// loop-carried dependency.
func selectionNoBranchCost(ctx *core.ExecCtx, v variant, live int) float64 {
	m := ctx.Machine
	per := (cmpElem+nobranchDep)*v.mul(m) + selStoreCost + v.loopOv(m)
	return v.callOv(m) + float64(live)*per
}

// bloomProbeCost prices the bloom-filter probe of Listings 5/6. The memory
// stall per probe is the analytic miss ratio of the filter against the
// machine's effective probe cache, divided by how many misses the loop
// shape lets the CPU keep in flight.
func bloomProbeCost(ctx *core.ExecCtx, v variant, live, filterBytes int, fission bool) float64 {
	m := ctx.Machine
	miss := hw.MissRatio(filterBytes, m.BloomEffCache)
	overlap := m.OverlapSerial
	elem := (bloomHash + bloomProbe) * v.mul(m)
	calls := v.callOv(m)
	if fission {
		overlap = m.OverlapFission
		elem += bloomFissPay * v.mul(m)
		calls += v.callOv(m) * 0.5 // second loop
	}
	per := elem + miss*m.MemLat/overlap + v.loopOv(m)
	return calls + float64(live)*per
}

// insertCheckCost prices a hash-table insert-check of one key column. The
// stall term grows as the table outgrows the LLC (Figure 4e).
func insertCheckCost(ctx *core.ExecCtx, v variant, live int, tableBytes int, driftCalls int) float64 {
	m := ctx.Machine
	miss := hw.MissRatio(tableBytes, m.LLCBytes)
	per := (insertElem + miss*m.MemLat*probeMemMul) * v.mul(m) * v.cg.DriftMul(v.class, driftCalls)
	return v.callOv(m) + float64(live)*(per+v.loopOv(m))
}

// groupedUpdateCost prices a grouped aggregate update over live tuples into
// an accumulator array of groups entries.
func groupedUpdateCost(ctx *core.ExecCtx, v variant, live, groups int, driftCalls int) float64 {
	m := ctx.Machine
	miss := hw.MissRatio(groups*16, m.LLCBytes)
	per := (aggrElem+miss*m.MemLat*groupMemMul)*v.mul(m)*v.cg.DriftMul(v.class, driftCalls) + v.loopOv(m)
	return v.callOv(m) + float64(live)*per
}

// fetchCost prices a positional gather; density drives which compiler's
// code wins (Figure 4d), and tiny selections expose the un-amortized call
// overhead (the border spikes of Figure 4c/d).
func fetchCost(ctx *core.ExecCtx, v variant, live int, density float64) float64 {
	m := ctx.Machine
	per := fetchElem*v.cg.FetchMul(density)*v.mul(m) + v.loopOv(m)
	return 3*v.callOv(m) + float64(live)*per
}

// mergeJoinCost prices one merge-join kernel call that consumed the given
// input tuples and emitted matches.
func mergeJoinCost(ctx *core.ExecCtx, v variant, consumed, matches int) float64 {
	m := ctx.Machine
	return v.callOv(m) + float64(consumed)*(mjElem*v.mul(m)+v.loopOv(m)) + float64(matches)*mjEmit
}
