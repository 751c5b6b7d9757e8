package main

import (
	"math/rand"
	"sort"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the tail percentiles the percentile rule chooses
// among, highest first, each with the share of samples beyond it in 1/1000.
var tailCandidates = []struct {
	pct    float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile applies the percentile rule: the highest candidate
// percentile with at least ten samples beyond it. With fewer than forty
// samples not even p75 qualifies and the median is all that can be said.
func tailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*1000 {
			return c.pct
		}
	}
	return 50
}

// relSpread is the distance between the quartiles as a share of the
// median; 0 when there are fewer than two values or the median is 0. The
// quartiles are the ones Python's statistics.quantiles(xs, n=4,
// method='inclusive') gives: of five slices, the second and the fourth.
// What a run reports is the median slice, which does not move when the
// fastest or the slowest slice does, so the spread it is judged by leaves
// those two out as well: for five independent slices of standard deviation
// s this distance averages 1.0 s, where the median of five itself has an
// interquartile distance of 0.7 s from run to run (and the quartiles that
// interpolate towards the extremes would say 1.7 s).
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / m
}

// mixStream yields one client's query sequence: every pass is a fresh
// seeded permutation of the mix, so a (seed, client) pair always replays
// the same sequence however many passes a run gets through.
type mixStream struct {
	mix  []int
	rng  *rand.Rand
	pass int
}

func newMixStream(mix []int, seed int64, client int) *mixStream {
	return &mixStream{mix: mix, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))}
}

// next returns the next pass's permutation and its pass index.
func (m *mixStream) next() ([]int, int) {
	perm := append([]int(nil), m.mix...)
	m.rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	m.pass++
	return perm, m.pass - 1
}
