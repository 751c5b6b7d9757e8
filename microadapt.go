// Package microadapt is a from-scratch Go reproduction of "Micro
// Adaptivity in Vectorwise" (Răducanu, Boncz, Żukowski; SIGMOD 2013).
//
// Micro Adaptivity keeps many functionally equivalent implementations
// ("flavors") of every vectorized query-execution primitive and picks one
// at each call with a multi-armed-bandit learning algorithm — vw-greedy —
// guided by the costs observed so far. This package is the public facade
// over the full system: the flavor framework and bandit algorithms
// (internal/core), the primitive library with every flavor axis the paper
// studies (internal/primitive), the vectorized engine and TPC-H workload
// (internal/engine, internal/tpch), the virtual-hardware substitution for
// compilers and machines (internal/hw), and the experiment harness that
// regenerates every table and figure of the paper (internal/bench).
//
// Quickstart:
//
//	sess := microadapt.NewSession(microadapt.AllFlavors(), microadapt.Machine1())
//	db := microadapt.GenerateTPCH(0.01, 42)
//	result, err := microadapt.RunQuery(db, sess, 12)
//
// See examples/ for runnable programs and cmd/madapt for the CLI.
package microadapt

import (
	"fmt"
	"io"
	"sync/atomic"

	"microadapt/internal/bench"
	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/heuristics"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/storage"
	"microadapt/internal/tpch"
)

// Re-exported core types. See the internal packages for full API docs.
type (
	// Session owns a primitive dictionary, a machine profile, a flavor-
	// selection policy and the primitive instances of executed plans.
	Session = core.Session
	// Chooser is a flavor-selection policy (a bandit over flavors).
	Chooser = core.Chooser
	// ChooseContext carries the instance and live call a policy may inspect.
	ChooseContext = core.ChooseContext
	// Observation reports the measured outcome of one primitive call.
	Observation = core.Observation
	// Snapshotter is the knowledge-export capability of learning policies.
	Snapshotter = core.Snapshotter
	// WarmStarter is the knowledge-import capability of learning policies.
	WarmStarter = core.WarmStarter
	// ChooserFactory builds a fresh Chooser for an n-flavor instance.
	ChooserFactory = core.ChooserFactory
	// PolicyDefinition describes one entry of the policy registry.
	PolicyDefinition = policy.Definition
	// VWParams are the vw-greedy tuning knobs (§3.2 of the paper).
	VWParams = core.VWParams
	// Machine is a virtual machine profile (Table 2 of the paper).
	Machine = hw.Machine
	// FlavorOptions selects which flavor axes get registered.
	FlavorOptions = primitive.Options
	// DB is a generated TPC-H database.
	DB = tpch.DB
	// Table is an in-memory column-store relation (also query results).
	Table = engine.Table
	// ExperimentConfig parameterizes the paper-experiment harness.
	ExperimentConfig = bench.Config
	// Report is a rendered experiment result.
	Report = bench.Report
	// Service executes TPC-H queries concurrently over one shared database
	// with a cross-session flavor-knowledge cache (see internal/service).
	Service = service.Service
	// ServiceConfig parameterizes a Service.
	ServiceConfig = service.Config
	// JobStats summarizes one executed query: latency, virtual cycles and
	// the exploration tax (off-best calls).
	JobStats = service.JobStats
	// PlanBuilder accumulates the logical plan DAG of one query; the
	// physical planner lowers it onto engine operators, derives instance
	// labels from plan position, and fans morsel-partitionable
	// scan→select→project chains into parallel fragments automatically.
	PlanBuilder = plan.Builder
	// PlanNode is one logical operator of a plan DAG.
	PlanNode = plan.Node
	// PlanExec is a plan bound to a session, ready to materialize roots.
	PlanExec = plan.Exec
	// PlanPred is one conjunct of a plan-level Select.
	PlanPred = plan.Pred
	// PlanScalar defers a predicate constant to a scalar subplan's result.
	PlanScalar = plan.Scalar
	// AggSpec is one aggregate output of an aggregation node.
	AggSpec = engine.AggSpec
	// AggFn enumerates the aggregate functions.
	AggFn = engine.AggFn
	// ProjExpr is one output column of a projection node.
	ProjExpr = engine.ProjExpr
	// SortKey describes one ordering column.
	SortKey = engine.SortKey
	// EncodedTable is a relation resident in compressed columnar form.
	EncodedTable = storage.EncodedTable
	// EncodedColumn is one column resident in an encoding (dictionary,
	// run-length, bit-packed, or flat passthrough).
	EncodedColumn = storage.EncodedColumn
	// Server is the stateless HTTP/JSON serving layer over a Service:
	// bounded admission with per-request deadlines, load shedding,
	// graceful drain, and a metrics endpoint (see internal/server and
	// cmd/madaptd).
	Server = server.Server
	// ServerConfig parameterizes a Server.
	ServerConfig = server.Config
	// ServerClient talks the madaptd wire protocol.
	ServerClient = server.Client
	// TableResolver resolves scan-table names when decoding wire plans.
	TableResolver = plan.TableResolver
)

// Aggregate functions usable in plan aggregation nodes.
const (
	AggSum   = engine.AggSum
	AggCount = engine.AggCount
	AggMin   = engine.AggMin
	AggMax   = engine.AggMax
	AggAvg   = engine.AggAvg
	AggFirst = engine.AggFirst
)

// Agg builds an aggregate spec: fn over column col, named as.
func Agg(fn AggFn, col int, as string) AggSpec { return engine.Agg(fn, col, as) }

// Keep passes an input column through a projection unchanged.
func Keep(name string, idx int) ProjExpr { return engine.Keep(name, idx) }

// Asc sorts ascending on col.
func Asc(col int) SortKey { return engine.Asc(col) }

// Desc sorts descending on col.
func Desc(col int) SortKey { return engine.Desc(col) }

// Plan-level predicate constructors (see internal/plan for the full API).
func PlanCmpVal(col int, op string, value any) PlanPred { return plan.CmpVal(col, op, value) }

// PlanCmpCol builds a column-vs-column plan predicate.
func PlanCmpCol(col int, op string, rhs int) PlanPred { return plan.CmpCol(col, op, rhs) }

// PlanLike builds a LIKE plan predicate.
func PlanLike(col int, pattern string) PlanPred { return plan.Like(col, pattern) }

// PlanInStr builds an IN-list plan predicate over a string column.
func PlanInStr(col int, values ...string) PlanPred { return plan.InStr(col, values...) }

// PlanCmpScalar builds a column-vs-scalar plan predicate; the constant is
// resolved from the scalar's source subplan at lowering time.
func PlanCmpScalar(col int, op string, s PlanScalar) PlanPred { return plan.CmpScalar(col, op, s) }

// PlanScalarOf references row 0 of column col of node n's result.
func PlanScalarOf(n *PlanNode, col string) PlanScalar { return plan.ScalarOf(n, col) }

// Machine profiles of the paper's Table 2.
func Machine1() *Machine { return hw.Machine1() }

// Machine2 is the Intel Core2 box.
func Machine2() *Machine { return hw.Machine2() }

// Machine3 is the AMD Egypt box.
func Machine3() *Machine { return hw.Machine3() }

// Machine4 is the Intel Sandy Bridge box.
func Machine4() *Machine { return hw.Machine4() }

// DefaultFlavors registers one flavor per primitive (the baseline build).
func DefaultFlavors() FlavorOptions { return primitive.Defaults() }

// AllFlavors registers every flavor on every axis: three compilers x
// branching x full-computation x loop-fission x hand-unrolling.
func AllFlavors() FlavorOptions { return primitive.Everything() }

// BranchFlavors widens only the branching axis of selection primitives
// (the flavor set of Table 6).
func BranchFlavors() FlavorOptions { return primitive.BranchSet() }

// CompilerFlavors widens only the compiler axis (Table 7).
func CompilerFlavors() FlavorOptions { return primitive.CompilerSet() }

// DecompressFlavors widens only the decompression-strategy axis (the
// compressed-storage scenario: eager vs lazy decode, operate-on-compressed
// selection).
func DecompressFlavors() FlavorOptions { return primitive.DecompressSet() }

// EncodeTable analyzes a table's columns and makes it resident in
// compressed columnar form; plans then scan it through the adaptive
// decompression flavor family. Use DB.Encode to encode a whole database.
func EncodeTable(t *Table) *EncodedTable { return engine.EncodeTable(t) }

// DefaultVWParams returns the parameters the paper's trace study found
// best: (EXPLORE_PERIOD, EXPLOIT_PERIOD, EXPLORE_LENGTH) = (1024, 8, 2).
func DefaultVWParams() VWParams { return core.DefaultVWParams() }

// NewSession builds a session with vw-greedy flavor selection.
func NewSession(o FlavorOptions, m *Machine, opts ...core.SessionOption) *Session {
	return core.NewSession(primitive.NewDictionary(o), m, opts...)
}

// WithVectorSize sets tuples per vector (default 1024).
func WithVectorSize(n int) core.SessionOption { return core.WithVectorSize(n) }

// WithSeed sets the session's deterministic seed.
func WithSeed(seed int64) core.SessionOption { return core.WithSeed(seed) }

// WithChooser overrides the flavor-selection policy.
func WithChooser(f ChooserFactory) core.SessionOption { return core.WithChooser(f) }

// WithParallelism sets intra-query pipeline parallelism: partitionable
// plans (the scan-heavy TPC-H pipelines) fan into P morsel streams, each on
// its own goroutine with its own fragment session and choosers, merged by
// an exchange that preserves the serial plan's row order and aggregates all
// partitions' learned flavor knowledge.
func WithParallelism(p int) core.SessionOption { return core.WithParallelism(p) }

// VWGreedyChooser returns a policy factory for vw-greedy with the given
// parameters and seed. Every chooser the factory builds draws its own
// random stream derived from seed — never a shared rand — so the factory
// is safe to use with parallel sessions (WithParallelism spawns fragment
// sessions whose choosers run on concurrent goroutines). Streams are
// assigned in chooser-creation order; with one factory serving several
// concurrently opening fragments that order follows goroutine scheduling,
// so parallel cycle traces may vary run to run (results never do). For
// bit-reproducible parallel runs use NewService with
// ServiceConfig.PipelineParallelism, which gives every fragment session its
// own seeded factory.
func VWGreedyChooser(p VWParams, seed int64) ChooserFactory {
	var ctr atomic.Int64
	return func(n int) Chooser {
		// The odd stride decorrelates consecutive streams (same scheme as
		// the policy registry).
		return core.NewVWGreedy(n, p, core.NewLazyRand(seed+ctr.Add(1)*6364136223846793005))
	}
}

// HeuristicsChooser returns the hard-coded threshold policy of §4.2,
// tuned for the given machine.
func HeuristicsChooser(m *Machine) ChooserFactory {
	return heuristics.Factory(m, heuristics.Default())
}

// FixedChooser pins every instance to one flavor index (clamped); it is
// the registry's "fixed:arm=N" policy.
func FixedChooser(arm int) ChooserFactory {
	if arm < 0 {
		arm = 0
	}
	return policy.MustFactory(fmt.Sprintf("fixed:arm=%d", arm), policy.Env{})
}

// PolicyChooser resolves a policy-registry spec string — e.g. "vw-greedy",
// "ucb1:c=2", "eps-greedy:eps=0.05", "fixed:arm=1" — into a chooser
// factory for the given machine and seed. Each chooser the factory builds
// gets its own deterministic random stream, so one factory may serve
// concurrently running sessions (individual choosers stay single-
// threaded). See Policies for the registry.
func PolicyChooser(spec string, m *Machine, seed int64) (ChooserFactory, error) {
	return policy.NewFactory(spec, policy.Env{Machine: m, Seed: seed})
}

// Policies lists the policy registry: name, parameter documentation, and
// warm-start capability of every selectable policy.
func Policies() []PolicyDefinition { return policy.Definitions() }

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string { return policy.Names() }

// GenerateTPCH builds the deterministic TPC-H database at a scale factor.
func GenerateTPCH(sf float64, seed int64) *DB { return tpch.Generate(sf, seed) }

// RunQuery executes TPC-H query n (1-22) and returns its result table.
func RunQuery(db *DB, s *Session, n int) (*Table, error) {
	return tpch.Query(n).Run(db, s)
}

// NewPlan starts a declarative plan builder; name prefixes the derived
// plan-position instance labels ("name/sel0", "name/hj2", ...). Build the
// DAG with the Scan/Select/Project/Agg/Join/Sort methods, register roots,
// then Bind to a session and Run a root:
//
//	b := microadapt.NewPlan("revenue")
//	sel := b.Scan(db.Lineitem, "l_shipdate", "l_extendedprice").Select(...)
//	b.Root(sel.Agg(nil, ...))
//	tab, err := b.Bind(sess).Run(b.MainRoot())
func NewPlan(name string) *PlanBuilder { return plan.New(name) }

// ExplainQuery renders TPC-H query n's logical plan plus its physical
// lowering at pipeline parallelism p, partition annotations included.
func ExplainQuery(db *DB, n, p int) string { return tpch.Explain(db, n, p) }

// RunAllQueries executes the full 22-query suite in one session.
func RunAllQueries(db *DB, s *Session) error { return bench.RunTPCH(db, s) }

// FormatTable renders up to maxRows of a result table.
func FormatTable(t *Table, maxRows int) string { return engine.TableString(t, maxRows) }

// DefaultExperimentConfig returns the standard experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return bench.DefaultConfig() }

// RunExperiment regenerates one of the paper's tables or figures by id
// (e.g. "fig2", "table11"); see ExperimentIDs.
func RunExperiment(cfg ExperimentConfig, id string) (*Report, error) {
	e, ok := bench.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return e.Run(cfg)
}

// RunAllExperiments regenerates every table and figure, writing reports
// to w.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) error {
	return bench.RunAll(cfg, w)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return bench.IDs() }

// DefaultServiceConfig returns a ready-to-run concurrent-service
// configuration (all flavors, vw-greedy, warm start on).
func DefaultServiceConfig() ServiceConfig { return service.DefaultConfig() }

// NewService builds a concurrent adaptive query service over db. Sessions
// are created fresh per query; with cfg.WarmStart they seed their choosers
// from the per-flavor costs earlier queries observed.
func NewService(db *DB, cfg ServiceConfig) *Service { return service.New(db, cfg) }

// NewServer builds the HTTP/JSON serving layer over a service; serve it
// with server.Start or mount it on any http mux (it implements
// http.Handler). cmd/madaptd is the packaged binary.
func NewServer(cfg ServerConfig) *Server { return server.NewServer(cfg) }

// NewServerClient builds a client for a running madaptd base URL.
func NewServerClient(base string) *ServerClient { return server.NewClient(base) }

// MarshalPlan serializes a logical plan DAG to its canonical JSON wire
// form — the body of madaptd's /v1/plan endpoint. Plans referencing
// opaque Go functions refuse to marshal; use RegisterPlanMapFn names and
// pattern-based CaseLikeStr instead.
func MarshalPlan(b *PlanBuilder) ([]byte, error) { return plan.MarshalPlan(b) }

// UnmarshalPlan validates a wire plan and rebuilds it against the tables
// resolve provides. All structural validation (node kinds, operator and
// aggregate sets, backward-only references, arity, column ranges) happens
// here; untrusted input comes back as an error, never a panic.
func UnmarshalPlan(data []byte, resolve TableResolver) (*PlanBuilder, error) {
	return plan.UnmarshalPlan(data, resolve)
}

// RegisterPlanMapFn names an int64 map function so MapI64 expressions
// using it survive the plan wire format.
func RegisterPlanMapFn(name string, fn func(int64) int64) { plan.RegisterMapI64(name, fn) }

// UnknownExperimentError reports a bad experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "microadapt: unknown experiment " + e.ID
}
