// Package aph implements the Approximated Performance History of the paper
// (§1.1): a bounded histogram of per-call primitive performance.
//
// Vectorwise keeps, for each primitive instance, profiling data at every
// call. A query processing 100M tuples calls its primitives ~100K times;
// keeping all measurements is too heavyweight, so the APH keeps at most 512
// buckets. Initially every call appends one bucket; when all 512 are used,
// neighbouring buckets are merged pairwise down to 256, after which each
// bucket spans 2 calls; after k merge rounds each bucket spans 2^k calls.
package aph

// DefaultBuckets is the bucket budget used by Vectorwise.
const DefaultBuckets = 512

// Bucket aggregates a contiguous run of primitive calls.
type Bucket struct {
	Calls  int     // number of calls merged into this bucket
	Tuples int64   // total tuples processed
	Cycles float64 // total cycles spent
}

// CyclesPerTuple returns the bucket's average cost; 0 for an empty bucket.
func (b Bucket) CyclesPerTuple() float64 {
	if b.Tuples == 0 {
		return 0
	}
	return b.Cycles / float64(b.Tuples)
}

// History is an approximated performance history. The zero value is not
// usable; construct with New or NewSize. The bucket slice grows on demand
// up to the budget: most instances of a short query record a handful of
// calls and never need the full 12 KiB.
type History struct {
	max     int
	span    int // calls per full bucket (2^k)
	buckets []Bucket
}

// New returns a History with the default 512-bucket budget.
func New() *History { return NewSize(DefaultBuckets) }

// NewSize returns a History holding at most maxBuckets buckets.
// maxBuckets must be an even number >= 2.
func NewSize(maxBuckets int) *History {
	if maxBuckets < 2 || maxBuckets%2 != 0 {
		panic("aph.NewSize: bucket budget must be an even number >= 2")
	}
	return &History{max: maxBuckets, span: 1}
}

// Add records one primitive call.
func (h *History) Add(tuples int, cycles float64) {
	n := len(h.buckets)
	if n > 0 && h.buckets[n-1].Calls < h.span {
		b := &h.buckets[n-1]
		b.Calls++
		b.Tuples += int64(tuples)
		b.Cycles += cycles
		return
	}
	if n == h.max {
		h.merge()
	} else if n == cap(h.buckets) {
		grown := make([]Bucket, n, min(max(2*n, 8), h.max))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets = append(h.buckets, Bucket{Calls: 1, Tuples: int64(tuples), Cycles: cycles})
}

// merge combines neighbouring buckets pairwise, halving the bucket count
// and doubling the span.
func (h *History) merge() {
	half := len(h.buckets) / 2
	for i := 0; i < half; i++ {
		a, b := h.buckets[2*i], h.buckets[2*i+1]
		h.buckets[i] = Bucket{
			Calls:  a.Calls + b.Calls,
			Tuples: a.Tuples + b.Tuples,
			Cycles: a.Cycles + b.Cycles,
		}
	}
	h.buckets = h.buckets[:half]
	h.span *= 2
}

// Totals returns the total tuples and cycles recorded.
func (h *History) Totals() (tuples int64, cycles float64) {
	for _, b := range h.buckets {
		tuples += b.Tuples
		cycles += b.Cycles
	}
	return tuples, cycles
}

// Series returns the per-bucket average cycles/tuple, in call order — the
// curves plotted in Figures 2, 4, 10 and 11 of the paper.
func (h *History) Series() []float64 {
	out := make([]float64, len(h.buckets))
	for i, b := range h.buckets {
		out[i] = b.CyclesPerTuple()
	}
	return out
}

// commonSpan returns the smallest span every history can be re-bucketed
// to: the maximum per-history span. Spans are always powers of two (they
// start at 1 and only double on merges), so the maximum is a multiple of
// every span.
func commonSpan(hs []*History) int {
	span := 1
	for _, h := range hs {
		if h.span > span {
			span = h.span
		}
	}
	return span
}

// alignedBuckets re-buckets the history so every bucket spans `span` calls
// (span must be a multiple of h.span): groups of span/h.span consecutive
// buckets are summed. Only the last bucket of a history can be partial, so
// grouping by index keeps groups call-aligned; the trailing group may cover
// fewer than span calls, exactly like a history's own trailing bucket.
func (h *History) alignedBuckets(span int) []Bucket {
	if span <= h.span {
		return h.buckets
	}
	ratio := span / h.span
	out := make([]Bucket, 0, (len(h.buckets)+ratio-1)/ratio)
	for i := 0; i < len(h.buckets); i += ratio {
		var b Bucket
		for j := i; j < i+ratio && j < len(h.buckets); j++ {
			b.Calls += h.buckets[j].Calls
			b.Tuples += h.buckets[j].Tuples
			b.Cycles += h.buckets[j].Cycles
		}
		out = append(out, b)
	}
	return out
}

// aligned re-buckets all histories to their common span and truncates to
// the shortest, so bucket i covers the same call range in every history —
// required before any bucket-by-bucket comparison: histories recorded from
// identical call sequences can still have merged a different number of
// times (different bucket budgets, or one just over a merge boundary).
func aligned(hs []*History) [][]Bucket {
	span := commonSpan(hs)
	out := make([][]Bucket, len(hs))
	n := -1
	for i, h := range hs {
		out[i] = h.alignedBuckets(span)
		if n < 0 || len(out[i]) < n {
			n = len(out[i])
		}
	}
	for i := range out {
		out[i] = out[i][:n]
	}
	return out
}

// OptCycles computes the OPT cycle total of §4.1: for each span-aligned
// bucket the minimum cycles among the histories, summed.
func OptCycles(hs ...*History) float64 {
	if len(hs) == 0 {
		return 0
	}
	bs := aligned(hs)
	var total float64
	for i := range bs[0] {
		best := bs[0][i].Cycles
		for _, hb := range bs[1:] {
			if v := hb[i].Cycles; v < best {
				best = v
			}
		}
		total += best
	}
	return total
}
