// Package trace implements the simulation-on-traces methodology of §3.2
// (Table 5): it records per-call flavor costs for every primitive instance
// of a workload (one run per flavor, each pinned), then replays the traces
// through candidate multi-armed-bandit algorithms and scores them against
// OPT, the per-call oracle.
package trace

import (
	"fmt"
	"sort"

	"microadapt/internal/core"
)

// InstanceTrace holds the recorded per-call costs of one primitive
// instance: Cycles[arm][call] is what flavor arm cost on that call.
// Because flavors are functionally equivalent and the engine is
// deterministic, call sequences align exactly across the per-arm runs.
type InstanceTrace struct {
	Label  string
	Sig    string
	Arms   int
	Tuples []int       // tuples per call
	Cycles [][]float64 // [arm][call]
}

// Calls returns the recorded call count.
func (tr *InstanceTrace) Calls() int { return len(tr.Tuples) }

// OptCycles is the oracle total: the per-call minimum across arms.
func (tr *InstanceTrace) OptCycles() float64 {
	var total float64
	for call := range tr.Tuples {
		best := tr.Cycles[0][call]
		for a := 1; a < tr.Arms; a++ {
			if c := tr.Cycles[a][call]; c < best {
				best = c
			}
		}
		total += best
	}
	return total
}

// recorder is a pinned chooser that logs every observation.
type recorder struct {
	arm    int
	tuples []int
	cycles []float64
}

func (r *recorder) Name() string                  { return "recorder" }
func (r *recorder) Choose(core.ChooseContext) int { return r.arm }
func (r *recorder) Observe(o core.Observation) {
	r.tuples = append(r.tuples, o.Tuples)
	r.cycles = append(r.cycles, o.Cycles)
}

// Workload runs a job against a session (e.g. the full TPC-H suite).
type Workload func(s *core.Session) error

// Record runs the workload once per arm in [0, nArms), pinning every
// instance to that arm (clamped to the instance's flavor count), and
// returns the per-instance traces sorted by label. Instances whose flavor
// count is below nArms get their extra columns filled from arm 0 so that
// simulation still sees a full matrix.
func Record(nArms int, mkSession func(core.ChooserFactory) *core.Session, workload Workload) ([]*InstanceTrace, error) {
	byLabel := make(map[string]*InstanceTrace)
	for arm := 0; arm < nArms; arm++ {
		arm := arm
		recs := make(map[*core.Instance]*recorder)
		s := mkSession(func(n int) core.Chooser {
			a := arm
			if a >= n {
				a = 0
			}
			return &recorder{arm: a}
		})
		if err := workload(s); err != nil {
			return nil, fmt.Errorf("trace.Record arm %d: %w", arm, err)
		}
		for _, inst := range s.Instances() {
			rec, _ := inst.Chooser().(*recorder)
			if rec == nil {
				continue
			}
			recs[inst] = rec
			tr := byLabel[inst.Label]
			if tr == nil {
				tr = &InstanceTrace{
					Label:  inst.Label,
					Sig:    inst.Prim.Sig,
					Arms:   nArms,
					Cycles: make([][]float64, nArms),
				}
				byLabel[inst.Label] = tr
			}
			if arm == 0 {
				tr.Tuples = rec.tuples
			}
			if len(rec.cycles) == len(tr.Tuples) {
				tr.Cycles[arm] = rec.cycles
			}
		}
	}
	var out []*InstanceTrace
	for _, tr := range byLabel {
		ok := tr.Tuples != nil
		for a := 0; a < tr.Arms; a++ {
			if tr.Cycles[a] == nil {
				// Instance missing from a run (or fewer flavors):
				// fall back to arm 0 so the matrix is complete.
				if tr.Cycles[0] == nil {
					ok = false
					break
				}
				tr.Cycles[a] = tr.Cycles[0]
			}
		}
		if ok && tr.Calls() > 0 {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out, nil
}

// Simulate replays one trace through a chooser and returns its total cost.
func Simulate(tr *InstanceTrace, mk func(n int) core.Chooser) float64 {
	ch := mk(tr.Arms)
	var total float64
	for call := range tr.Tuples {
		arm := ch.Choose(core.ChooseContext{})
		if arm < 0 || arm >= tr.Arms {
			arm = 0
		}
		c := tr.Cycles[arm][call]
		ch.Observe(core.Observation{Arm: arm, Tuples: tr.Tuples[call], Cycles: c})
		total += c
	}
	return total
}

// Scores are the two metrics of Table 5 (lower is better, 1.0 = OPT).
type Scores struct {
	AbsoluteOverOPT float64
	RelativeOverOPT float64
}

// Average is the mean of the two scores, the ranking key of Table 5.
func (s Scores) Average() float64 { return (s.AbsoluteOverOPT + s.RelativeOverOPT) / 2 }

// Score runs an algorithm over all traces. Absolute/OPT divides workload
// totals (weighting instances by their cost); Relative/OPT averages the
// per-instance ratios.
func Score(traces []*InstanceTrace, mk func(n int) core.Chooser) Scores {
	var sumAlgo, sumOpt float64
	var relSum float64
	relN := 0
	for _, tr := range traces {
		algo := Simulate(tr, mk)
		opt := tr.OptCycles()
		sumAlgo += algo
		sumOpt += opt
		if opt > 0 {
			relSum += algo / opt
			relN++
		}
	}
	s := Scores{}
	if sumOpt > 0 {
		s.AbsoluteOverOPT = sumAlgo / sumOpt
	}
	if relN > 0 {
		s.RelativeOverOPT = relSum / float64(relN)
	}
	return s
}
