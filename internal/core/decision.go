package core

// Decision is an operator-level adaptive Point: a named set of arms
// ("hash", "merge", "bloomhash"; a table sizing) with a cost signal,
// chosen per plan position by the same policy machinery that picks
// primitive flavors. Where an Instance's arms are the flavors of a
// dictionary primitive, a Decision's arms are whatever strategies the
// operator enumerates — the generalization Cuttlefish showed works one
// level above primitives. Its Sig is DecisionSig(name).
//
// A Decision is resolved far less often than a primitive is called
// (typically once per operator Open), so its cost signal is coarse: the
// operator reports, per resolution, the tuples the strategy processed and
// the virtual cycles it attributes to the strategy.
type Decision struct {
	Point
}

// NewDecision builds a decision point over the named arms using the given
// chooser (constructed for len(arms) arms).
func NewDecision(name, label string, arms []string, chooser Chooser) *Decision {
	return &Decision{newPoint(DecisionSig(name), label, arms, chooser)}
}

// Choose resolves the decision under the given features and returns the
// arm index (clamped — a misbehaving policy must not crash the operator).
// Single-arm decisions short-circuit.
func (d *Decision) Choose(feat Features) int { return d.choose(ChooseContext{Feat: feat}) }

// Observe reports the measured outcome of the most recent Choose: how many
// tuples the chosen strategy processed and what it cost. Operators call it
// once per resolution (typically at Close), after the cost is known.
func (d *Decision) Observe(tuples int, cost float64) { d.record(tuples, cost) }
