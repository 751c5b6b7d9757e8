package primitive

import (
	"fmt"
	"math"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/storage"
	"microadapt/internal/vector"
)

// The decompression flavor family. Encoded-column scans do their data-path
// work through two primitive classes, both keyed by element type only —
// never by encoding, so a logical scan keeps its cache key (core.Key) and its
// cross-session warm-start knowledge when the analyzer re-encodes a column:
//
//   - scan_decompress_<t>_col materializes an encoded column into a batch
//     vector. Flavors: "eager" decodes the whole vector range; "lazy"
//     gathers only the positions of the selection vector. The winner flips
//     with the selectivity of the pushed-down predicates, exactly like the
//     selective-vs-full-computation axis of Figure 7.
//   - selenc_<op>_<t>_col_<t>_val evaluates a pushed-down comparison over
//     an encoded column. Flavors: "decode" decompresses the live values and
//     compares them; "oncompressed" evaluates on the compressed form — a
//     dictionary code interval (one narrow compare per row) or one
//     predicate per RLE run (O(runs + selected)). The winner flips with the
//     encoding, run lengths and dictionary size, the paper's decompression
//     scenario (§1).
//
// The encoding itself travels in Call.Aux as a DecompressArgs: it is data,
// not flavor — flavors are strategies that every encoding supports
// (encodings without a compressed-form shortcut fall back to decoding
// inside the flavor, preserving result equivalence).

// DecompressArgs is Call.Aux for both decompress-class primitive families:
// the encoded column, the table row offset of batch position 0, and a
// scan-owned scratch vector (capacity >= Call.N) the decode-then-compare
// selection flavor materializes into.
type DecompressArgs struct {
	Col     storage.EncodedColumn
	Lo      int
	Scratch *vector.Vector
}

// DecompressSig builds a decompression scan signature, e.g.
// scan_decompress_sint_col.
func DecompressSig(t vector.Type) string {
	return fmt.Sprintf("scan_decompress_%s_col", t)
}

// EncSelSig builds an encoded-selection signature, e.g.
// selenc_<_sint_col_sint_val.
func EncSelSig(op string, t vector.Type) string {
	return fmt.Sprintf("selenc_%s_%s_col_%s_val", op, t, t)
}

// decompressStrategies resolves the configured strategy axis (default:
// eager only, the one-flavor baseline).
func (o Options) decompressStrategies() []string {
	if len(o.Decompress) == 0 {
		return []string{"eager"}
	}
	for _, s := range o.Decompress {
		switch s {
		case "eager", "lazy", "oncompressed":
		default:
			panic("primitive: unknown decompress strategy " + s)
		}
	}
	return o.Decompress
}

// hasStrategy reports whether the resolved axis contains s.
func (o Options) hasStrategy(s string) bool {
	for _, x := range o.decompressStrategies() {
		if x == s {
			return true
		}
	}
	return false
}

// Per-element decode cost factors, relative to Machine.ArithElem (see
// cost.go for the calibration convention).
const (
	decFlatElem = 0.50 // straight copy
	decDictElem = 1.25 // code load + dictionary fetch
	decRLEElem  = 0.40 // amortized run fill (sequential)
	decPackElem = 0.95 // shift/mask/add unpack
	decRandMul  = 1.35 // random-access penalty of per-position decode
	encCodeCmp  = 0.55 // one uint16 dictionary-code compare (narrow, dense)
	encRunCmp   = 2.20 // one per-run predicate evaluation + bounds bookkeeping
	encRunEmit  = 0.35 // one emitted position of a qualifying run (sequential fill)
	encSelWalk  = 0.30 // per live tuple of walking an input selection vector
)

// eagerDecodeElem is the sequential per-element decode cost of an encoding.
func eagerDecodeElem(enc storage.EncodedColumn) float64 {
	switch enc.Encoding() {
	case storage.Dict:
		return decDictElem
	case storage.RLE:
		return decRLEElem
	case storage.BitPack:
		return decPackElem
	default:
		return decFlatElem
	}
}

// eagerDecodeCost prices a full-range decode of n elements.
func eagerDecodeCost(ctx *core.ExecCtx, v variant, enc storage.EncodedColumn, n int) float64 {
	m := ctx.Machine
	return v.callOv(m) + float64(n)*(eagerDecodeElem(enc)*v.mul(m)+v.loopOv(m))
}

// lazyGatherCost prices decoding only the k selected of n elements through
// a selection vector: per-position random access defeats the sequential
// decode loop, and RLE additionally pays a run lookup for the first hit.
func lazyGatherCost(ctx *core.ExecCtx, v variant, enc storage.EncodedColumn, k int) float64 {
	m := ctx.Machine
	w := enc.Type().Width()
	per := eagerDecodeElem(enc) * decRandMul * gatherFactor(m, w) * v.mul(m)
	cost := v.callOv(m) + float64(k)*(per+v.loopOv(m))
	if enc.Encoding() == storage.RLE {
		cost += log2(enc.Units()) * cmpElem // binary search for the first run
	}
	return cost
}

// encSelectDecodeCost prices the decompress-then-compare selection flavor:
// the decode of the live values plus a branch-free compare over them.
func encSelectDecodeCost(ctx *core.ExecCtx, v variant, enc storage.EncodedColumn, n, live, selected int) float64 {
	m := ctx.Machine
	var decode float64
	if live == n {
		decode = float64(n) * (eagerDecodeElem(enc)*v.mul(m) + v.loopOv(m))
	} else {
		decode = lazyGatherCost(ctx, v, enc, live) - v.callOv(m)
	}
	per := (cmpElem+nobranchDep)*v.mul(m) + v.loopOv(m)
	return v.callOv(m) + decode + float64(live)*per + float64(selected)*selStoreCost
}

// encSelectCompressedCost prices predicate evaluation on the compressed
// form itself.
func encSelectCompressedCost(ctx *core.ExecCtx, v variant, enc storage.EncodedColumn, n, live, selected int, hadSel bool) float64 {
	m := ctx.Machine
	cost := v.callOv(m)
	switch enc.Encoding() {
	case storage.Dict:
		// Two binary searches map the constant to a code interval, then
		// every live row pays one narrow code compare.
		cost += 2*log2(enc.Units())*cmpElem + float64(live)*(encCodeCmp*v.mul(m)+v.loopOv(m)) + float64(selected)*selStoreCost
	case storage.RLE:
		// One predicate per run overlapping the batch; qualifying runs
		// emit their positions as a sequential fill.
		runsTouched := float64(enc.Units())*float64(n)/float64(max(enc.Len(), 1)) + 1
		cost += log2(enc.Units())*cmpElem + runsTouched*encRunCmp*v.mul(m) + float64(selected)*encRunEmit
		if hadSel {
			cost += float64(live) * encSelWalk
		}
	default:
		// The encoding had no compressed-form shortcut and the flavor fell
		// back to decode-and-compare; it pays that cost plus a failed probe.
		return encSelectDecodeCost(ctx, v, enc, n, live, selected) + cmpElem
	}
	return cost
}

// log2 is a cost-model helper over structural unit counts.
func log2(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// makeDecompress builds one scan-decompression flavor.
func makeDecompress(lazy bool, v variant) core.PrimFn {
	if !lazy {
		return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
			args := c.Aux.(*DecompressArgs)
			args.Col.DecodeRange(args.Lo, args.Lo+c.N, c.Res)
			return c.N, eagerDecodeCost(ctx, v, args.Col, c.N)
		}
	}
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		args := c.Aux.(*DecompressArgs)
		if c.Sel == nil {
			// No selection to exploit: lazy degenerates to the eager scan.
			args.Col.DecodeRange(args.Lo, args.Lo+c.N, c.Res)
			return c.N, eagerDecodeCost(ctx, v, args.Col, c.N)
		}
		args.Col.Gather(args.Lo, c.Sel, c.Res)
		return len(c.Sel), lazyGatherCost(ctx, v, args.Col, len(c.Sel))
	}
}

// makeEncSelect builds one encoded-selection flavor: decode-then-compare
// (onCompressed=false) or compressed-form evaluation with decode fallback.
func makeEncSelect[T ordered](op string, onCompressed bool, v variant) core.PrimFn {
	cmp := cmpFn[T](op)
	decode := func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		args := c.Aux.(*DecompressArgs)
		if c.Sel == nil {
			args.Col.DecodeRange(args.Lo, args.Lo+c.N, args.Scratch)
		} else {
			args.Col.Gather(args.Lo, c.Sel, args.Scratch)
		}
		vals := sliceOf[T](args.Scratch)
		rhs := sliceOf[T](c.In[0])[0]
		out := c.SelOut
		k := 0
		if c.Sel != nil {
			for _, p := range c.Sel {
				if cmp(vals[p], rhs) {
					out[k] = p
					k++
				}
			}
		} else {
			for i := 0; i < c.N; i++ {
				if cmp(vals[i], rhs) {
					out[k] = int32(i)
					k++
				}
			}
		}
		return k, encSelectDecodeCost(ctx, v, args.Col, c.N, c.Live(), k)
	}
	if !onCompressed {
		return decode
	}
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		args := c.Aux.(*DecompressArgs)
		k, ok := args.Col.SelectConst(args.Lo, args.Lo+c.N, op, c.In[0], c.Sel, c.SelOut)
		if !ok {
			k, _ = decode(ctx, c)
		}
		return k, encSelectCompressedCost(ctx, v, args.Col, c.N, c.Live(), k, c.Sel != nil)
	}
}

// registerDecompressFor registers the decompression family for one type.
// The eager scan flavor and the decode selection flavor are the baseline
// every encoded scan needs (an EncodedScan cannot open without at least
// one flavor per signature it resolves), so they register unconditionally;
// axis entries beyond "eager" add the alternatives.
func registerDecompressFor[T ordered](d *core.Dictionary, o Options, t vector.Type) {
	cg := o.codegens()[0] // strategy axis is orthogonal to the compiler axis
	v := variant{cg: cg, class: hw.ClassDecompress}
	addFlavor(d, DecompressSig(t), hw.ClassDecompress, &core.Flavor{
		Name:   "eager",
		Source: cg.Name,
		Tags:   map[string]string{"strategy": "eager"},
		Fn:     makeDecompress(false, v),
	})
	for _, op := range selOps {
		addFlavor(d, EncSelSig(op, t), hw.ClassDecompress, &core.Flavor{
			Name:   "decode",
			Source: cg.Name,
			Tags:   map[string]string{"strategy": "decode"},
			Fn:     makeEncSelect[T](op, false, v),
		})
	}
	if o.hasStrategy("lazy") {
		addFlavor(d, DecompressSig(t), hw.ClassDecompress, &core.Flavor{
			Name:   "lazy",
			Source: cg.Name,
			Tags:   map[string]string{"strategy": "lazy"},
			Fn:     makeDecompress(true, v),
		})
	}
	if o.hasStrategy("oncompressed") {
		for _, op := range selOps {
			addFlavor(d, EncSelSig(op, t), hw.ClassDecompress, &core.Flavor{
				Name:   "oncompressed",
				Source: cg.Name,
				Tags:   map[string]string{"strategy": "oncompressed"},
				Fn:     makeEncSelect[T](op, true, v),
			})
		}
	}
}

func registerDecompress(d *core.Dictionary, o Options) {
	registerDecompressFor[int16](d, o, vector.I16)
	registerDecompressFor[int32](d, o, vector.I32)
	registerDecompressFor[int64](d, o, vector.I64)
	registerDecompressFor[float64](d, o, vector.F64)
	registerDecompressFor[string](d, o, vector.Str)
}
