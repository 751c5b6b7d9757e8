package core

import "strings"

// ArmStats aggregates the profiling of one arm within one adaptive point.
type ArmStats struct {
	Calls  int
	Tuples int64
	Cycles float64
}

// CyclesPerTuple returns the arm's mean cost within the point.
func (s ArmStats) CyclesPerTuple() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return s.Cycles / float64(s.Tuples)
}

// Point is an adaptive point: a plan position where a chooser picks one of
// several equivalent arms and learns from what each choice cost. A
// primitive Instance is a point whose arms are the flavors of a dictionary
// primitive, chosen per call; a Decision is a point whose arms are operator
// strategies, chosen per operator Open. Both share this one identity,
// profile, chooser and record step, so the knowledge cache, the adaptation
// ledger and the best-arm rule treat them alike.
type Point struct {
	Sig   string   // primitive signature, or DecisionSig(name) for a decision
	Label string   // plan-unique name; partition-tagged in fragment sessions
	Arms  []string // stable arm names in arm order: flavor or strategy names

	// Profiling: totals, then per arm.
	Calls   int
	Tuples  int64
	Cycles  float64
	PerArm  []ArmStats
	LastArm int // arm of the most recent choice

	chooser Chooser
	key     string // Key(), built on first use
}

func newPoint(sig, label string, arms []string, chooser Chooser) Point {
	return Point{Sig: sig, Label: label, Arms: arms, PerArm: make([]ArmStats, len(arms)), chooser: chooser}
}

func (p *Point) point() *Point { return p }

// Chooser exposes the point's policy.
func (p *Point) Chooser() Chooser { return p.chooser }

// Key returns the point's stable cross-session identity, Key(Sig, Label),
// built at most once per point.
func (p *Point) Key() string {
	if p.key == "" {
		p.key = Key(p.Sig, p.Label)
	}
	return p.key
}

// Key builds the stable cross-session identity of an adaptive point: its
// signature and its plan label joined with '@', e.g.
// "select_<_sint_col_sint_val@Q12/sel#0" or
// "decision:join-strategy@Q3/hj1/strategy". Plans build labels
// deterministically, so two sessions running the same query produce equal
// keys, which is what the service's shared knowledge cache relies on. The
// key leaves out arm indices: sessions may register different flavor sets
// for one signature, so knowledge is exchanged by arm name, never by
// position. Partition tags are stripped (BaseLabel), so the P
// per-partition bandits of a parallel plan and the serial plan's one
// bandit share a key.
func Key(sig, label string) string {
	return sig + "@" + BaseLabel(label)
}

// choose asks the chooser for an arm and records it as LastArm. Single-arm
// points never consult the policy, and an out-of-range answer falls back
// to arm 0: a misbehaving policy must not crash the engine.
func (p *Point) choose(cc ChooseContext) int {
	arm := 0
	if len(p.Arms) > 1 {
		arm = p.chooser.Choose(cc)
		if arm < 0 || arm >= len(p.Arms) {
			arm = 0
		}
	}
	p.LastArm = arm
	return arm
}

// record books one outcome of the most recent choice into the profile,
// then feeds it to the chooser.
func (p *Point) record(tuples int, cycles float64) {
	p.Calls++
	p.Tuples += int64(tuples)
	p.Cycles += cycles
	as := &p.PerArm[p.LastArm]
	as.Calls++
	as.Tuples += int64(tuples)
	as.Cycles += cycles
	p.chooser.Observe(Observation{Arm: p.LastArm, Tuples: tuples, Cycles: cycles})
}

// CyclesPerTuple returns the point's overall mean cost.
func (p *Point) CyclesPerTuple() float64 {
	if p.Tuples == 0 {
		return 0
	}
	return p.Cycles / float64(p.Tuples)
}

// BestMeasuredArm returns the arm with the lowest measured mean cost
// (cycles/tuple) among arms that processed at least one tuple, or -1 when
// nothing was measured yet.
func (p *Point) BestMeasuredArm() int {
	best, bestCost := -1, 0.0
	for i := range p.PerArm {
		as := &p.PerArm[i]
		if as.Tuples == 0 {
			continue
		}
		if c := as.CyclesPerTuple(); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// AdaptationCost returns, for a point with more than one arm, its calls
// and the calls that used an arm other than its measured best: the
// exploration (plus wrong-exploitation) overhead that warm starts are
// meant to shrink. A single-arm point carries no choice and costs nothing.
func (p *Point) AdaptationCost() (adaptive, offBest int64) {
	if len(p.Arms) <= 1 {
		return 0, 0
	}
	adaptive = int64(p.Calls)
	if best := p.BestMeasuredArm(); best >= 0 {
		offBest = adaptive - int64(p.PerArm[best].Calls)
	}
	return adaptive, offBest
}

// AdaptationCost sums Point.AdaptationCost over instances.
func AdaptationCost(insts []*Instance) (adaptive, offBest int64) { return sumAdaptation(insts) }

// DecisionAdaptationCost sums Point.AdaptationCost over decisions.
func DecisionAdaptationCost(ds []*Decision) (adaptive, offBest int64) { return sumAdaptation(ds) }

func sumAdaptation[T interface{ point() *Point }](pts []T) (adaptive, offBest int64) {
	for _, x := range pts {
		a, o := x.point().AdaptationCost()
		adaptive += a
		offBest += o
	}
	return adaptive, offBest
}

// decisionSigPrefix namespaces decision identities away from dictionary
// primitive signatures in chooser factories and knowledge caches.
const decisionSigPrefix = "decision:"

// DecisionSig returns the signature-shaped identity of a decision kind; it
// flows through InstanceChooserFactory and the knowledge cache exactly like
// a primitive signature, so "decision:join-strategy@Q3/hj1/strategy" and
// "sel_htlookup_slng_col@Q3/hj1/..." live in one namespace.
func DecisionSig(name string) string { return decisionSigPrefix + name }

// IsDecisionSig reports whether a signature names a decision rather than a
// dictionary primitive — the test chooser factories use it to pin flavors
// while leaving operator strategies at their defaults (or vice versa).
func IsDecisionSig(sig string) bool { return strings.HasPrefix(sig, decisionSigPrefix) }
