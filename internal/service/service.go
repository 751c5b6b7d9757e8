package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/tpch"
)

// Config parameterizes a Service.
type Config struct {
	// Flavors selects the registered flavor sets (default: Everything).
	Flavors primitive.Options
	// Machine is the virtual machine profile queries run on.
	Machine *hw.Machine
	// VectorSize is tuples per vector (default 128, the bench default).
	VectorSize int
	// Policy is the flavor-selection policy spec every session uses,
	// resolved through the policy registry (default "vw-greedy"; e.g.
	// "ucb1:c=2" or "eps-greedy:eps=0.05").
	Policy string
	// VW are the base vw-greedy parameters (the "vw-greedy" policy reads
	// them; spec parameters override individual knobs).
	VW core.VWParams
	// WarmStart seeds fresh sessions' choosers from the shared cache via
	// the core.WarmStarter capability; policies without the capability run
	// cold regardless.
	WarmStart bool
	// PipelineParallelism is the intra-query fan-out P: partitionable
	// plans split their scan-heavy pipeline into P morsel streams, each
	// running on its own goroutine with its own fragment session and
	// choosers (engine.ParallelPipeline). 0 or 1 keeps queries serial.
	// Fragment sessions follow WarmStart exactly like query sessions, and
	// their learned knowledge harvests into the shared cache under the
	// same partition-free instance keys as the serial plan's.
	PipelineParallelism int
	// EncodedStorage makes the service's database resident in compressed
	// columnar form at construction (idempotent when the caller already
	// encoded it): scans then run through the adaptive decompression
	// flavor family and results stay bit-identical to flat storage. Note
	// that New encodes the *given* DB in place — the encoded form is a
	// property of the shared database, not of one service.
	EncodedStorage bool
	// Seed is the base of the deterministic per-session seed sequence.
	Seed int64
}

// DefaultConfig returns a ready-to-run service configuration.
func DefaultConfig() Config {
	return Config{
		Flavors:    primitive.Everything(),
		Machine:    hw.Machine1(),
		VectorSize: 128,
		Policy:     "vw-greedy",
		VW:         core.VWParams{ExplorePeriod: 512, ExploitPeriod: 8, ExploreLength: 1, WarmupSkip: 2, InitialSweep: true},
		WarmStart:  true,
		Seed:       1,
	}
}

// Service executes TPC-H queries concurrently over one shared immutable
// database. Each query runs in a fresh single-threaded core.Session (the
// engine and choosers are not thread-safe, so sessions are never shared
// across goroutines); what *is* shared is read-only or explicitly guarded:
//
//   - db: immutable after generation, read concurrently by all scans;
//   - dict: the primitive dictionary, RWMutex-guarded and read-only here;
//   - cache: the flavor-knowledge store, RWMutex-guarded, touched once per
//     instance at session construction (priors) and once per query at the
//     end (harvest) — never on the per-call hot path.
//
// The session-per-query model mirrors a query stream from many clients:
// without warm start every query pays the vw-greedy cold-start exploration
// tax on each of its primitive instances; with warm start the cache
// amortizes that tax across the whole stream.
type Service struct {
	cfg        Config
	db         *tpch.DB
	dict       *core.Dictionary
	cache      *FlavorCache
	policySpec policy.Spec // cfg.Policy, parsed once at construction
	policyErr  error       // invalid Policy spec, reported by Execute

	seq         atomic.Int64 // per-session seed sequence
	seededInsts atomic.Int64 // instances that got >= 1 finite prior
	coldInsts   atomic.Int64 // multi-flavor instances built with no priors
}

// New builds a service over an already generated database.
func New(db *tpch.DB, cfg Config) *Service {
	if cfg.VectorSize < 1 {
		cfg.VectorSize = 128
	}
	if cfg.Machine == nil {
		cfg.Machine = hw.Machine1()
	}
	if cfg.Policy == "" {
		cfg.Policy = "vw-greedy"
	}
	// Default each unset VW field individually: replacing the whole struct
	// whenever ExplorePeriod was unset silently discarded an
	// ExploitPeriod/ExploreLength the caller did set. Only an entirely zero
	// VW takes the full default (WarmupSkip/InitialSweep included — their
	// zero values are meaningful and must survive when anything was set).
	if cfg.VW == (core.VWParams{}) {
		cfg.VW = DefaultConfig().VW
	} else {
		cfg.VW = cfg.VW.FilledWith(DefaultConfig().VW)
	}
	if cfg.PipelineParallelism < 1 {
		cfg.PipelineParallelism = 1
	}
	if len(cfg.Flavors.Compilers) == 0 {
		// A zero-value Options registers no flavors and every query would
		// panic on its first primitive lookup; default like the other
		// fields so a hand-built Config works.
		cfg.Flavors = primitive.Everything()
	}
	if cfg.EncodedStorage {
		db.Encode()
	}
	svc := &Service{
		cfg:   cfg,
		db:    db,
		dict:  primitive.NewDictionary(cfg.Flavors),
		cache: NewFlavorCache(),
	}
	// Parse and probe-build the policy once: a bad spec is a configuration
	// error every Execute reports, not a per-session surprise, and valid
	// sessions reuse the parsed spec instead of re-parsing per query.
	svc.policySpec, svc.policyErr = policy.ParseSpec(cfg.Policy)
	if svc.policyErr == nil {
		_, svc.policyErr = policy.NewFactoryFromSpec(svc.policySpec, svc.policyEnv(cfg.Seed))
	}
	return svc
}

// policyEnv assembles the registry environment for one session seed.
func (svc *Service) policyEnv(seed int64) policy.Env {
	return policy.Env{Machine: svc.cfg.Machine, VW: svc.cfg.VW, Seed: seed}
}

// Cache exposes the shared knowledge store (reports, tests).
func (svc *Service) Cache() *FlavorCache { return svc.cache }

// Config returns the active configuration.
func (svc *Service) Config() Config { return svc.cfg }

// SeededInstances returns how many multi-flavor instances were constructed
// with at least one cached prior vs. completely cold.
func (svc *Service) SeededInstances() (seeded, cold int64) {
	return svc.seededInsts.Load(), svc.coldInsts.Load()
}

// Err reports the service's construction-time configuration error (an
// invalid policy spec), the same error Execute would return. Callers that
// build sessions directly (the distributed coordinator) check it up front.
func (svc *Service) Err() error { return svc.policyErr }

// NewSession builds a fresh warm-started session outside Execute. The
// distributed coordinator binds residual plans — everything above the
// preset fragment results — to sessions built here, then harvests them
// into the cache like any query session. Callers must check Err first and
// must not share the session across goroutines.
func (svc *Service) NewSession() *core.Session { return svc.newSession() }

// newSession builds a fresh session for one query. Sessions draw distinct
// deterministic seeds from the service's sequence, so concurrent runs are
// reproducible in aggregate even though job interleaving is not. The
// session's choosers come from the configured policy spec; with WarmStart
// on, each chooser that implements core.WarmStarter is seeded from the
// shared cache under the instance's stable identity before its first call.
// With PipelineParallelism > 1 the session carries a fragment spawner that
// builds each pipeline partition's session the same way — own seed, own
// choosers, same warm-start wiring — so intra-query partitions learn
// independently but share the cache's knowledge.
func (svc *Service) newSession() *core.Session {
	return svc.buildSession(svc.cfg.Seed+svc.seq.Add(1), -1)
}

// buildSession constructs one session: a query coordinator (part < 0) or
// the fragment session of pipeline partition part.
func (svc *Service) buildSession(seed int64, part int) *core.Session {
	opts := []core.SessionOption{
		core.WithVectorSize(svc.cfg.VectorSize),
		core.WithSeed(seed),
	}
	if part < 0 && svc.cfg.PipelineParallelism > 1 {
		opts = append(opts,
			core.WithParallelism(svc.cfg.PipelineParallelism),
			core.WithFragmentSpawner(func(fp int) *core.Session {
				return svc.buildSession(seed+core.FragmentSeedStride*int64(fp+1), fp)
			}))
	}
	// The probe in New caught spec errors; this rebuild cannot fail.
	factory, err := policy.NewFactoryFromSpec(svc.policySpec, svc.policyEnv(seed))
	if err != nil {
		panic("service: policy spec validated at New but failed at session build: " + err.Error())
	}
	if svc.cfg.WarmStart {
		opts = append(opts, core.WithInstanceChooser(func(sig, label string, arms []string) core.Chooser {
			n := len(arms)
			ch := factory(n)
			ws, ok := ch.(core.WarmStarter)
			if !ok {
				return ch // the policy cannot ingest knowledge: run it cold
			}
			// The arm names arrive from the session (flavor names for
			// primitives, strategy names for operator-level decisions), so
			// no dictionary lookup is needed — which is what lets decision
			// points warm-start through the same cache as flavors.
			// InstanceKey collapses fragment partition tags, so every
			// partition of a parallel plan seeds from — and harvests into —
			// the serial plan's cache entry.
			priors, any := svc.cache.Priors(primitive.InstanceKey(sig, label), arms)
			if n > 1 {
				if any {
					svc.seededInsts.Add(1)
				} else {
					svc.coldInsts.Add(1)
				}
			}
			if any {
				ws.SeedPriors(priors)
			}
			return ch
		}))
	} else {
		opts = append(opts, core.WithChooser(factory))
	}
	return core.NewSession(svc.dict, svc.cfg.Machine, opts...)
}

// JobStats summarizes one executed query: its latency, virtual cycles and
// exploration tax.
type JobStats struct {
	Query         int
	Latency       time.Duration
	PrimCycles    float64
	Instances     int   // primitive instances the plan created
	AdaptiveCalls int64 // calls into instances with > 1 flavor
	OffBestCalls  int64 // adaptive calls that used a non-best flavor
}

// Execute runs one TPC-H query (1-22) in a fresh session, harvests the
// learned flavor knowledge into the shared cache, and returns the result
// table plus per-job statistics. It is safe to call from many goroutines.
func (svc *Service) Execute(q int) (*engine.Table, JobStats, error) {
	if q < 1 || q > 22 {
		return nil, JobStats{}, fmt.Errorf("service: no TPC-H query %d", q)
	}
	if svc.policyErr != nil {
		return nil, JobStats{}, fmt.Errorf("service: %w", svc.policyErr)
	}
	s := svc.newSession()
	start := time.Now()
	tab, err := tpch.Query(q).Run(svc.db, s)
	st := JobStats{Query: q, Latency: time.Since(start)}
	if err != nil {
		return nil, st, fmt.Errorf("service: Q%02d: %w", q, err)
	}
	svc.cache.Harvest(s)
	st.PrimCycles = s.Ctx.PrimCycles // fragments fold in at the exchange
	st.Instances = len(s.AllInstances())
	st.AdaptiveCalls, st.OffBestCalls = adaptationCost(s)
	return tab, st, nil
}

// ExecutePlan runs an arbitrary logical plan — typically one a client
// shipped over the wire and the plan JSON codec rebuilt — in a fresh
// warm-started session, harvests the learned flavor knowledge exactly like
// Execute, and returns the materialized main root. All registered roots
// run (sharing materialized subtrees), so a multi-root plan's side outputs
// learn too, but only the main root's table is returned.
//
// Unlike the hand-audited TPC-H specs, a wire plan can reach engine states
// the builder's validation cannot rule out statically (type mismatches
// deep in an expression, a merge join over unsorted input); the engine
// reports those by panicking. A network server must not crash on a bad
// plan, so this is the one execution path that converts panics to errors.
func (svc *Service) ExecutePlan(b *plan.Builder) (tab *engine.Table, st JobStats, err error) {
	if svc.policyErr != nil {
		return nil, JobStats{}, fmt.Errorf("service: %w", svc.policyErr)
	}
	if len(b.Roots()) == 0 {
		return nil, JobStats{}, fmt.Errorf("service: plan %s has no roots", b.Name())
	}
	s := svc.newSession()
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			tab, st, err = nil, JobStats{Latency: time.Since(start)},
				fmt.Errorf("service: plan %s: %v", b.Name(), r)
		}
	}()
	exec := b.Bind(s)
	for _, root := range b.Roots() {
		t, rerr := exec.Run(root.Node)
		if rerr != nil {
			return nil, JobStats{Latency: time.Since(start)}, fmt.Errorf("service: plan %s: %w", b.Name(), rerr)
		}
		if tab == nil {
			tab = t
		}
	}
	st = JobStats{Latency: time.Since(start)}
	svc.cache.Harvest(s)
	st.PrimCycles = s.Ctx.PrimCycles
	st.Instances = len(s.AllInstances())
	st.AdaptiveCalls, st.OffBestCalls = adaptationCost(s)
	return tab, st, nil
}

// DB exposes the shared database (the server's plan codec resolves scan
// tables against it).
func (svc *Service) DB() *tpch.DB { return svc.db }

// Explain renders TPC-H query q's logical plan and the physical lowering
// the service's sessions will execute — including which pipelines fan out
// under the configured PipelineParallelism.
func (svc *Service) Explain(q int) (string, error) {
	if q < 1 || q > 22 {
		return "", fmt.Errorf("service: no TPC-H query %d", q)
	}
	return tpch.Explain(svc.db, q, svc.cfg.PipelineParallelism), nil
}

// adaptationCost measures how much of a session's work went into calls
// that did not use the flavor the session ultimately found best, pipeline-
// fragment instances included (see core.AdaptationCost). Operator-level
// decisions (join strategy, table sizing, partitioning) count on the same
// ledger: an exploratory merge-join probe is exploration tax exactly like
// an exploratory flavor call.
func adaptationCost(s *core.Session) (adaptive, offBest int64) {
	adaptive, offBest = core.AdaptationCost(s.AllInstances())
	da, db := core.DecisionAdaptationCost(s.AllDecisions())
	return adaptive + da, offBest + db
}
