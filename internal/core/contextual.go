package core

import (
	"math"
	"sort"
)

// Contextual lifts any context-free chooser into a contextual policy by
// bucketing: it keys independent inner choosers by Features.Bucket() and
// routes every Choose/Observe pair to the bucket of the call's features.
// Data-dependent cost structure that a single bandit averages away — a
// selection whose best flavor flips with per-batch selectivity, a scan
// whose best decompression depends on the encoding — becomes separable,
// because each bucket's bandit sees only its own regime.
//
// Calls without features (the zero ChooseContext) land in the "" bucket,
// so the wrapper degrades to exactly one inner chooser — context-free
// behavior — when no operator supplies context.
//
// Like every Chooser, a Contextual is single-threaded. Knowledge flows
// through the usual capabilities: Snapshot merges the buckets (per arm,
// the cheapest measured estimate — the cost the instance can achieve when
// the context cooperates), SeedPriors seeds every bucket, present and
// future, so fleet knowledge warms all regimes.
type Contextual struct {
	inner   func() Chooser
	n       int
	buckets map[string]Chooser
	order   []string // creation order, for deterministic Snapshot merging
	last    Chooser  // bucket chooser that served the latest Choose
	priors  []float64
	name    string
}

// NewContextual builds a contextual wrapper over n arms; inner builds one
// fresh context-free chooser per bucket on demand.
func NewContextual(n int, inner func() Chooser) *Contextual {
	c := &Contextual{inner: inner, n: n, buckets: make(map[string]Chooser)}
	c.name = "ctx(" + c.bucket("").Name() + ")"
	return c
}

// Name implements Chooser.
func (c *Contextual) Name() string { return c.name }

// bucket returns (creating on first use) the inner chooser of one bucket.
func (c *Contextual) bucket(key string) Chooser {
	if ch, ok := c.buckets[key]; ok {
		return ch
	}
	ch := c.inner()
	if c.priors != nil {
		if ws, ok := ch.(WarmStarter); ok {
			ws.SeedPriors(c.priors)
		}
	}
	c.buckets[key] = ch
	c.order = append(c.order, key)
	return ch
}

// Choose implements Chooser: it delegates to the bucket of the call's
// features and remembers it so the matching Observe lands in the same
// bucket (Choose/Observe pair up per call under the Chooser contract).
func (c *Contextual) Choose(cc ChooseContext) int {
	ch := c.bucket(cc.Feat.Bucket())
	c.last = ch
	return ch.Choose(cc)
}

// Observe implements Chooser, feeding the bucket that made the choice.
func (c *Contextual) Observe(o Observation) {
	if c.last == nil {
		c.last = c.bucket("")
	}
	c.last.Observe(o)
}

// Snapshot implements Snapshotter: per arm, the cheapest cost any bucket
// measured itself, with the measured mask OR-ed across buckets. Buckets
// without the capability contribute nothing.
func (c *Contextual) Snapshot() ([]float64, []bool) {
	costs := make([]float64, c.n)
	measured := make([]bool, c.n)
	for i := range costs {
		costs[i] = math.Inf(1)
	}
	keys := append([]string(nil), c.order...)
	sort.Strings(keys)
	for _, key := range keys {
		sn, ok := c.buckets[key].(Snapshotter)
		if !ok {
			continue
		}
		bc, bm := sn.Snapshot()
		for i := 0; i < c.n && i < len(bc); i++ {
			if i < len(bm) && bm[i] && bc[i] < costs[i] {
				costs[i] = bc[i]
				measured[i] = true
			}
		}
	}
	return costs, measured
}

// SeedPriors implements WarmStarter: priors seed every existing bucket and
// are kept for buckets created later, so a warm start reaches regimes the
// session has not met yet.
func (c *Contextual) SeedPriors(priors []float64) {
	c.priors = append([]float64(nil), priors...)
	for _, key := range c.order {
		if ws, ok := c.buckets[key].(WarmStarter); ok {
			ws.SeedPriors(priors)
		}
	}
}
