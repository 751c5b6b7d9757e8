package core

import (
	"microadapt/internal/aph"
	"microadapt/internal/hw"
)

// Instance is a primitive instance: one occurrence of a primitive function
// in a query plan (§1.1 "Primitive Instances"). Different instances of the
// same primitive process different data streams, so each is its own
// adaptive Point over the primitive's flavors, and carries its own
// Approximated Performance History and virtual-hardware state (its branch
// predictor site).
type Instance struct {
	Point
	Prim *Primitive

	hist *aph.History

	Produced int64 // output tuples (selection primitives: qualifying tuples)

	// Pred is the branch predictor state of this instance's data-
	// dependent branch site, shared across flavors (it is the same
	// branch in all builds).
	Pred hw.BranchPredictor
}

// NewInstance builds an instance of prim using the given chooser. The
// chooser must have been constructed for len(prim.Flavors) arms (a
// Session gives it one at registration).
func NewInstance(prim *Primitive, label string, chooser Chooser) *Instance {
	return &Instance{Point: newPoint(prim.Sig, label, prim.FlavorNames(), chooser), Prim: prim, hist: aph.New()}
}

// History returns the instance's Approximated Performance History.
func (inst *Instance) History() *aph.History { return inst.hist }

// Run executes one call of the instance: it asks the chooser for a flavor,
// invokes it, and feeds the observed (tuples, cycles) back into the APH,
// the profiling counters and the chooser. It returns the number of
// produced tuples.
func (inst *Instance) Run(ctx *ExecCtx, c *Call) int {
	c.Inst = inst
	if !c.Feat.Valid {
		// Operators that know better (encoded scans, joins) set Feat
		// themselves; everything else gets the instance's running output
		// selectivity as the default context — the same estimate the §4.2
		// heuristics read, now visible to every contextual policy.
		c.Feat.Valid = true
		if inst.Tuples > 0 {
			c.Feat.Selectivity = float64(inst.Produced) / float64(inst.Tuples)
		} else {
			c.Feat.Selectivity = 1
		}
	}
	arm := inst.choose(ChooseContext{Inst: inst, Call: c, Feat: c.Feat})
	produced, cycles := inst.Prim.Flavors[arm].Fn(ctx, c)

	tuples := c.Live()
	inst.Produced += int64(produced)
	inst.hist.Add(tuples, cycles)
	inst.record(tuples, cycles)
	ctx.PrimCycles += cycles
	return produced
}
