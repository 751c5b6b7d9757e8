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
	"sync"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

// Config parameterizes an experiment run. The defaults trade the paper's
// SF-100 for a laptop-scale workload with proportionally scaled vector
// size and vw-greedy parameters (see DESIGN.md §4).
type Config struct {
	SF         float64
	Seed       int64
	VectorSize int
	Machine    *hw.Machine
	// Policy is the default flavor-selection policy spec (registry syntax,
	// e.g. "ucb1:c=2"); empty means "vw-greedy" with the VW parameters.
	Policy string
	// VW are the base vw-greedy parameters (spec parameters override).
	VW core.VWParams
	// PipelineParallelism is the intra-query fan-out of partitionable
	// plans (0/1 = serial), applied to every session the config builds.
	PipelineParallelism int
	// ChartWidth/Height controls ASCII figure rendering.
	ChartWidth, ChartHeight int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		SF:         0.05,
		Seed:       42,
		VectorSize: 128,
		Machine:    hw.Machine1(),
		VW:         core.VWParams{ExplorePeriod: 512, ExploitPeriod: 8, ExploreLength: 1, WarmupSkip: 2, InitialSweep: true},
		ChartWidth: 72, ChartHeight: 14,
	}
}

// cacheScale is the factor applied to cache capacities for TPC-H runs so
// working-set-to-cache ratios match the paper's SF-100 regime (DESIGN §4).
func (cfg Config) cacheScale() float64 {
	s := cfg.SF / 2
	if s > 1 {
		s = 1
	}
	return s
}

// TPCHSession is Session with the machine's caches scaled for the TPC-H
// data volume; all whole-workload experiments use it.
func (cfg Config) TPCHSession(o primitive.Options, chooser core.ChooserFactory) *core.Session {
	scaled := cfg
	scaled.Machine = cfg.Machine.ScaledCaches(cfg.cacheScale())
	return scaled.Session(o, chooser)
}

// Report is the rendered output of one experiment.
type Report struct {
	ID    string
	Title string
	Body  string
}

func (r *Report) String() string {
	line := strings.Repeat("=", len(r.Title))
	return fmt.Sprintf("%s\n%s\n%s\n", r.Title, line, r.Body)
}

// dbCache memoizes generated databases per (sf, seed); the mutex makes it
// safe for concurrent experiment runs (generation may happen twice under a
// race, but both results are identical — Generate is deterministic).
var (
	dbCacheMu sync.Mutex
	dbCache   = map[[2]int64]*tpch.DB{}
)

// DB returns the (cached) database for the configuration.
func (cfg Config) DB() *tpch.DB {
	key := [2]int64{int64(cfg.SF * 1e6), cfg.Seed}
	dbCacheMu.Lock()
	db, ok := dbCache[key]
	dbCacheMu.Unlock()
	if ok {
		return db
	}
	db = tpch.Generate(cfg.SF, cfg.Seed)
	dbCacheMu.Lock()
	dbCache[key] = db
	dbCacheMu.Unlock()
	return db
}

// EncodedDB generates a fresh database and makes it resident in compressed
// columnar form. Encoded experiments must use this, never cfg.DB().Encode():
// the cached DB is shared across every experiment in the process, and
// encoding it in place would silently flip all later flat runs to encoded
// scans.
func (cfg Config) EncodedDB() *tpch.DB {
	return tpch.Generate(cfg.SF, cfg.Seed).Encode()
}

// PolicyEnv is the registry environment of this configuration.
func (cfg Config) PolicyEnv() policy.Env {
	return policy.Env{Machine: cfg.Machine, VW: cfg.VW, Seed: cfg.Seed}
}

// Session builds a session over a fresh dictionary with the given flavor
// options and chooser (nil = cfg.Policy via the registry, defaulting to
// vw-greedy with cfg.VW). An invalid cfg.Policy spec panics: experiment
// configurations are wired by code, and the CLI validates specs up front.
func (cfg Config) Session(o primitive.Options, chooser core.ChooserFactory) *core.Session {
	dict := primitive.NewDictionary(o)
	opts := []core.SessionOption{core.WithVectorSize(cfg.VectorSize), core.WithSeed(cfg.Seed)}
	if cfg.PipelineParallelism > 1 {
		opts = append(opts, core.WithParallelism(cfg.PipelineParallelism))
		if chooser == nil {
			// Registry-built policies get a fresh factory per fragment
			// session with a partition-derived seed: one shared factory
			// would hand out its per-chooser random streams in instance-
			// creation arrival order across concurrently opening fragments,
			// making cycle traces vary run to run (results never differ —
			// flavors are equivalent — but experiments must be
			// reproducible).
			opts = append(opts, core.WithFragmentSpawner(func(part int) *core.Session {
				env := cfg.PolicyEnv()
				env.Seed = cfg.Seed + core.FragmentSeedStride*int64(part+1)
				return core.NewSession(dict, cfg.Machine,
					core.WithVectorSize(cfg.VectorSize),
					core.WithSeed(env.Seed),
					core.WithChooser(policy.MustFactory(cfg.policySpec(), env)))
			}))
		}
	}
	if chooser == nil {
		chooser = policy.MustFactory(cfg.policySpec(), cfg.PolicyEnv())
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

// policySpec is cfg.Policy with the vw-greedy default applied.
func (cfg Config) policySpec() string {
	if cfg.Policy == "" {
		return "vw-greedy"
	}
	return cfg.Policy
}

// fixedArm resolves the registry's "fixed:arm=N" spec: every instance
// pinned to min(arm, flavors-1).
func fixedArm(arm int) core.ChooserFactory {
	return policy.MustFactory(fmt.Sprintf("fixed:arm=%d", arm), policy.Env{})
}

// RunTPCH executes all 22 queries in one session.
func RunTPCH(db *tpch.DB, s *core.Session) error { return runQueries(db, s, tpch.Queries()) }

func runQueries(db *tpch.DB, s *core.Session, queries []tpch.Spec) error {
	for _, q := range queries {
		if _, err := q.Run(db, s); err != nil {
			return fmt.Errorf("%s: %v", q.Name, err)
		}
	}
	return nil
}

// pinnedSessions runs queries once per arm, each arm in its own session
// pinned to it, and returns the sessions in arm order.
func (cfg Config) pinnedSessions(db *tpch.DB, o primitive.Options, arms int, queries ...tpch.Spec) ([]*core.Session, error) {
	sessions := make([]*core.Session, arms)
	for arm := range sessions {
		sessions[arm] = cfg.TPCHSession(o, fixedArm(arm))
		if err := runQueries(db, sessions[arm], queries); err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// flavorCalls calls flavor arm of inst calls times and returns the total
// cycles; before each call, next refills the inputs and returns the call.
func flavorCalls(s *core.Session, inst *core.Instance, arm, calls int, next func() *core.Call) float64 {
	fl := inst.Prim.Flavors[arm]
	var cycles float64
	for i := 0; i < calls; i++ {
		c := next()
		c.Inst = inst
		_, cyc := fl.Fn(s.Ctx, c)
		cycles += cyc
	}
	return cycles
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
func (cfg Config) chartAPH(title string, series []stats.Series) string {
	return stats.ASCIIChart(title, series, cfg.ChartWidth, cfg.ChartHeight)
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
