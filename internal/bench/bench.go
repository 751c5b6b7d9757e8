// Package bench regenerates every table and figure of the paper's
// evaluation: micro-benchmarks (Figures 1, 5, 6, 8, Table 4), the
// vw-greedy demonstration (Figure 10), trace simulation (Table 5), the
// per-flavor-set TPC-H studies (Tables 6-10, Figures 2, 4, 11) and the
// end-to-end comparison against heuristics (Table 11).
package bench

import (
	"fmt"
	"sort"
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

// Config parameterizes an experiment run. The defaults trade the paper's
// SF-100 for a laptop scale with proportionally scaled vector size and
// vw-greedy parameters (README: "Regenerating the paper's tables and figures").
type Config struct {
	SF         float64
	Seed       int64
	VectorSize int
	Machine    *hw.Machine
	// VW are the parameters of every registry-built vw-greedy chooser.
	VW core.VWParams
}

// DefaultConfig returns the standard experiment configuration: the served
// vector size, machine and vw-greedy parameters (service.DefaultConfig) at
// a laptop scale factor.
func DefaultConfig() Config {
	svc := service.DefaultConfig()
	return Config{SF: 0.05, Seed: 42, VectorSize: svc.VectorSize, Machine: svc.Machine, VW: svc.VW}
}

// chartCols and chartRows size every ASCII figure.
const chartCols, chartRows = 72, 14

// cacheScale is the factor applied to cache capacities for TPC-H runs so
// working-set-to-cache ratios match the paper's SF-100 regime.
func (cfg Config) cacheScale() float64 {
	s := cfg.SF / 2
	if s > 1 {
		s = 1
	}
	return s
}

// tpchSession is session with the machine's caches scaled for the TPC-H
// data volume; all whole-workload experiments use it.
func (cfg Config) tpchSession(o primitive.Options, chooser core.ChooserFactory) *core.Session {
	scaled := cfg
	scaled.Machine = cfg.Machine.ScaledCaches(cfg.cacheScale())
	return scaled.session(o, chooser)
}

// policyEnv is the registry environment of this configuration.
func (cfg Config) policyEnv() policy.Env {
	return policy.Env{Machine: cfg.Machine, VW: cfg.VW, Seed: cfg.Seed}
}

// session builds a serial session over a fresh dictionary with the given
// flavor options and chooser (nil = the registry's vw-greedy with cfg.VW).
// Experiments stay serial because they read per-instance histories by
// serial plan label (mustInstance, APH charts), which a partitioned plan
// would split across fragment sessions.
func (cfg Config) session(o primitive.Options, chooser core.ChooserFactory) *core.Session {
	dict := primitive.NewDictionary(o)
	opts := []core.SessionOption{core.WithVectorSize(cfg.VectorSize), core.WithSeed(cfg.Seed)}
	if chooser == nil {
		chooser = policy.MustFactory("vw-greedy", cfg.policyEnv())
	} else {
		// An explicitly supplied factory pins (or traces) primitive
		// flavors; operator-level decisions stay on their default arms so
		// every pinned run executes the same physical plan shape — a
		// Table 6-10 study compares flavors, not join strategies.
		pin := chooser
		opts = append(opts, core.WithInstanceChooser(func(sig, label string, arms []string) core.Chooser {
			if core.IsDecisionSig(sig) {
				return core.NewFixed(0)
			}
			return pin(len(arms))
		}))
	}
	opts = append(opts, core.WithChooser(chooser))
	return core.NewSession(dict, cfg.Machine, opts...)
}

// fixedArm resolves the registry's "fixed:arm=N" spec: every instance
// pinned to min(arm, flavors-1).
func fixedArm(arm int) core.ChooserFactory {
	return policy.MustFactory(fmt.Sprintf("fixed:arm=%d", arm), policy.Env{})
}

func runQueries(db *tpch.DB, s *core.Session, queries []tpch.Spec) error {
	for _, q := range queries {
		if _, err := q.Run(db, s); err != nil {
			return fmt.Errorf("%s: %v", q.Name, err)
		}
	}
	return nil
}

// pinnedSessions runs queries once per arm, each arm in its own session
// pinned to it, and returns the sessions in arm order. Every pinned
// instance records its per-call costs, so collectTraces can replay the
// runs (Table 5 replays Table 7's).
func (cfg Config) pinnedSessions(db *tpch.DB, o primitive.Options, arms int, queries ...tpch.Spec) ([]*core.Session, error) {
	sessions := make([]*core.Session, arms)
	for arm := range sessions {
		sessions[arm] = cfg.tpchSession(o, recording(fixedArm(arm)))
		if err := runQueries(db, sessions[arm], queries); err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// armSessions builds one serial session per arm, each pinned to its arm;
// the micro experiments run every flavor in the session of its arm.
func (cfg Config) armSessions(o primitive.Options, arms int) []*core.Session {
	sessions := make([]*core.Session, arms)
	for arm := range sessions {
		sessions[arm] = cfg.session(o, fixedArm(arm))
	}
	return sessions
}

// flavorCalls runs a fresh instance of sig, labelled label, calls times in
// s and returns the cycles they cost; before each call, next refills the
// inputs and returns the call.
func flavorCalls(s *core.Session, sig, label string, calls int, next func() *core.Call) float64 {
	inst := s.Instance(sig, label)
	for i := 0; i < calls; i++ {
		inst.Run(s.Ctx, next())
	}
	return inst.Cycles
}

// affectedCycles sums the cycles of instances with more than one flavor
// (the primitives the active flavor set actually targets) and the total
// primitive cycles of the session, fragment sessions included.
func affectedCycles(s *core.Session) (affected, total float64) {
	for _, inst := range s.AllInstances() {
		total += inst.Cycles
		if len(inst.Prim.Flavors) > 1 {
			affected += inst.Cycles
		}
	}
	return affected, total
}

// chartAPH renders overlaid APH cycles/tuple series.
func chartAPH(title string, series []stats.Series) string {
	return stats.ASCIIChart(title, series, chartCols, chartRows)
}

// instancesByLabel collects one labelled instance from several sessions,
// erroring out loudly if absent (an experiment wiring bug).
func mustInstance(s *core.Session, label string) *core.Instance {
	if inst := s.InstanceByLabel(label); inst != nil {
		return inst
	}
	var near []string
	for _, inst := range s.Instances() {
		if strings.Contains(inst.Label, label[:min(len(label), 6)]) {
			near = append(near, inst.Label)
		}
	}
	sort.Strings(near)
	panic(fmt.Sprintf("bench: no instance %q; near matches: %v", label, near))
}

func fmtFactor(base, other float64) string {
	if other == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", base/other)
}

func fmtBillions(c float64) string {
	switch {
	case c >= 1e9:
		return fmt.Sprintf("%.1f bn.", c/1e9)
	case c >= 1e6:
		return fmt.Sprintf("%.1f mn.", c/1e6)
	default:
		return fmt.Sprintf("%.0f", c)
	}
}
