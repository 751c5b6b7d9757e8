package core

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"microadapt/internal/hw"
)

// ChooserFactory builds a fresh Chooser for an instance with n flavors.
type ChooserFactory func(n int) Chooser

// InstanceChooserFactory builds a Chooser knowing which decision point it
// is for: the identity signature (a dictionary primitive signature, or
// DecisionSig(name) for an operator-level decision), the plan-unique
// label, and the arm names in arm order (flavor names for primitive
// instances, strategy names for decisions). This is the hook warm-started
// sessions use to look up prior per-arm knowledge under the point's
// stable identity before the first call runs; arm names arrive here so
// the factory never needs a dictionary lookup that would fail for
// non-primitive decisions.
type InstanceChooserFactory func(sig, label string, arms []string) Chooser

// FragmentSpawner builds the session one parallel pipeline fragment runs
// on. It receives the partition index and must return a session that shares
// the parent's dictionary and machine but owns its chooser state — the
// engine and choosers stay single-threaded; parallelism comes from running
// whole fragment sessions on separate goroutines.
type FragmentSpawner func(part int) *Session

// Session ties together everything a query execution needs: the primitive
// dictionary, the machine profile (virtual hardware), the flavor-selection
// policy, and the registry of primitive instances created by plans, from
// which the experiment harness reads profiling and histories after a run.
type Session struct {
	Dict       *Dictionary
	Machine    *hw.Machine
	VectorSize int
	Ctx        *ExecCtx

	newChooser     ChooserFactory
	newInstChooser InstanceChooserFactory
	defaultPolicy  bool // newChooser is the built-in default, over the session's own stream
	instances      []*Instance
	byLabel        map[string]*Instance
	decisions      []*Decision
	decByLabel     map[string]*Decision

	seed          int64
	parallelism   int // pipeline partitions a partitionable plan may fan into
	partition     int // partition index of a fragment session; -1 otherwise
	spawnFragment FragmentSpawner
	fragments     []*Session // fragment sessions spawned by this session's plans
}

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithVectorSize sets the tuples-per-vector of the session (default 1024).
func WithVectorSize(n int) SessionOption {
	return func(s *Session) { s.VectorSize = n }
}

// WithChooser sets the flavor-selection policy factory. The default is
// vw-greedy with the paper's best parameters (1024, 8, 2).
func WithChooser(f ChooserFactory) SessionOption {
	return func(s *Session) { s.newChooser = f }
}

// WithInstanceChooser sets an instance-aware policy factory that receives
// the primitive signature and plan label of each instance; it takes
// precedence over WithChooser. Warm-started sessions use it to seed
// choosers from cross-session knowledge.
func WithInstanceChooser(f InstanceChooserFactory) SessionOption {
	return func(s *Session) { s.newInstChooser = f }
}

// WithSeed sets the session's deterministic random seed (default 1).
func WithSeed(seed int64) SessionOption {
	return func(s *Session) { s.seed = seed }
}

// WithParallelism sets the pipeline parallelism P: partitionable plans
// (engine.ParallelPipeline) fan their scan-heavy fragments into P morsel
// streams, each running on its own goroutine with its own fragment session.
// P <= 1 (the default) keeps every plan serial.
func WithParallelism(p int) SessionOption {
	return func(s *Session) { s.parallelism = p }
}

// WithFragmentSpawner overrides how Fragment builds partition sessions. The
// concurrent service uses it to warm-start every fragment from the shared
// flavor cache. The spawner may be invoked once per partition each time a
// parallel plan opens; the sessions it returns must be freshly built (never
// shared with another goroutine).
func WithFragmentSpawner(f FragmentSpawner) SessionOption {
	return func(s *Session) { s.spawnFragment = f }
}

// NewSession builds a session on the given machine profile.
func NewSession(dict *Dictionary, m *hw.Machine, opts ...SessionOption) *Session {
	s := &Session{
		Dict:       dict,
		Machine:    m,
		VectorSize: 1024,
		Ctx:        NewExecCtx(m),
		byLabel:    make(map[string]*Instance),
		decByLabel: make(map[string]*Decision),
		seed:       1,
		partition:  -1,
	}
	for _, o := range opts {
		o(s)
	}
	if s.newChooser == nil {
		p, rng := DefaultVWParams(), NewLazyRand(s.seed)
		s.newChooser = func(n int) Chooser { return NewVWGreedy(n, p, rng) }
		s.defaultPolicy = true
	}
	return s
}

// lazySource is rand.NewSource(seed) built on the first draw: seeding fills
// a 607-word state, and most choosers of a served query never draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) real() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}
func (l *lazySource) Int63() int64    { return l.real().Int63() }
func (l *lazySource) Uint64() uint64  { return l.real().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// NewLazyRand is rand.New(rand.NewSource(seed)), draw for draw, seeded
// lazily; every session and per-chooser random stream is built with it.
func NewLazyRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// Parallelism returns the session's pipeline-parallelism setting (>= 1).
func (s *Session) Parallelism() int {
	if s.parallelism < 1 {
		return 1
	}
	return s.parallelism
}

// Partition returns the fragment's partition index, or -1 for a session
// that is not a pipeline fragment.
func (s *Session) Partition() int { return s.partition }

// FragmentSeedStride spaces the derived seeds of fragment sessions; any
// odd constant keeps partitions distinct without colliding with the
// +1-per-session sequences callers use. Custom FragmentSpawners (the
// concurrent service's) reuse it so default- and spawner-built fragments
// derive seeds the same way.
const FragmentSeedStride = 1_000_003

// Fragment builds and registers the session a pipeline fragment for
// partition part runs on. With a configured FragmentSpawner the spawner
// decides everything but the partition tag; otherwise the fragment shares
// the parent's dictionary, machine and vector size, draws a
// partition-derived deterministic seed, and reuses the parent's chooser
// factory when the caller set one (registry factories are safe for
// concurrent sessions) or builds its own default vw-greedy over its own
// random stream. Fragment must be called from the goroutine that owns the
// parent session — typically while a parallel operator opens — never from
// inside a running fragment goroutine.
//
// Reproducibility note: a single shared factory hands out per-chooser
// random streams in instance-creation arrival order, which across
// concurrently opening fragments depends on goroutine scheduling — results
// are unaffected (flavors are equivalent) but cycle traces can vary run to
// run. Callers that need bit-reproducible parallel runs should install a
// FragmentSpawner building a fresh, partition-seeded factory per fragment,
// as the concurrent service and the bench harness do.
func (s *Session) Fragment(part int) *Session {
	var fs *Session
	if s.spawnFragment != nil {
		fs = s.spawnFragment(part)
	} else {
		opts := []SessionOption{
			WithVectorSize(s.VectorSize),
			WithSeed(s.seed + FragmentSeedStride*int64(part+1)),
		}
		if s.newInstChooser != nil {
			opts = append(opts, WithInstanceChooser(s.newInstChooser))
		} else if !s.defaultPolicy {
			opts = append(opts, WithChooser(s.newChooser))
		}
		fs = NewSession(s.Dict, s.Machine, opts...)
	}
	fs.partition = part
	fs.parallelism = 1 // fragments never fan out further
	s.fragments = append(s.fragments, fs)
	return fs
}

// Fragments returns the fragment sessions spawned by this session's plans,
// in spawn order.
func (s *Session) Fragments() []*Session { return s.fragments }

// AllInstances returns the session's instances followed by those of every
// fragment session it spawned — the full set of bandits one query execution
// created, which knowledge harvesting and adaptation accounting walk.
func (s *Session) AllInstances() []*Instance {
	if len(s.fragments) == 0 {
		return s.instances
	}
	out := append([]*Instance(nil), s.instances...)
	for _, fs := range s.fragments {
		out = append(out, fs.AllInstances()...)
	}
	return out
}

// partitionSep introduces the partition tag of fragment-session instance
// labels: "Q1/sel/select_<=_sint_col_sint_val#0~p2" is partition 2's
// instance of the plan node the serial plan labels without the suffix.
const partitionSep = "~p"

// PartitionLabel appends the partition tag to a plan label.
func PartitionLabel(label string, part int) string {
	return label + partitionSep + strconv.Itoa(part)
}

// BaseLabel strips a trailing partition tag, returning the plan label all
// partitions of one plan node share; labels without a tag pass through.
// Cross-session identity (primitive.InstanceKey) is built on base labels,
// which is what makes P per-partition bandits aggregate their knowledge
// under one cache key.
func BaseLabel(label string) string {
	i := strings.LastIndex(label, partitionSep)
	if i < 0 {
		return label
	}
	digits := label[i+len(partitionSep):]
	if digits == "" {
		return label
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return label
		}
	}
	return label[:i]
}

// Instance returns the instance registered under label, creating it (bound
// to the signature's flavors and a fresh chooser) on first use. Each plan
// node uses a distinct label, so two uses of the same primitive in a plan
// learn independently, as in the paper. Fragment sessions tag the label
// with their partition so profiling stays per-partition while BaseLabel
// still collapses all partitions onto the serial plan's label.
func (s *Session) Instance(sig, label string) *Instance {
	if s.partition >= 0 {
		label = PartitionLabel(label, s.partition)
	}
	if inst, ok := s.byLabel[label]; ok {
		return inst
	}
	prim := s.Dict.MustLookup(sig)
	if len(prim.Flavors) == 0 {
		panic("core: primitive has no flavors: " + sig)
	}
	var chooser Chooser
	if s.newInstChooser != nil {
		names := make([]string, len(prim.Flavors))
		for i, f := range prim.Flavors {
			names[i] = f.Name
		}
		chooser = s.newInstChooser(sig, label, names)
	} else {
		chooser = s.newChooser(len(prim.Flavors))
	}
	inst := NewInstance(prim, label, chooser)
	s.instances = append(s.instances, inst)
	s.byLabel[label] = inst
	return inst
}

// Decision returns the operator-level decision point registered under
// label, creating it (bound to the named arms and a fresh chooser) on
// first use — the exact Instance protocol one level up: fragment sessions
// tag the label with their partition, warm-started sessions build the
// chooser through the same instance-aware factory (under the identity
// DecisionSig(name)), and knowledge harvesting walks AllDecisions like
// AllInstances. Arms must be stable across sessions for a given name:
// cross-session knowledge is exchanged by arm name.
func (s *Session) Decision(name, label string, arms []string) *Decision {
	if s.partition >= 0 {
		label = PartitionLabel(label, s.partition)
	}
	if d, ok := s.decByLabel[label]; ok {
		return d
	}
	if len(arms) == 0 {
		panic("core: decision has no arms: " + name)
	}
	var chooser Chooser
	if s.newInstChooser != nil {
		chooser = s.newInstChooser(DecisionSig(name), label, arms)
	} else {
		chooser = s.newChooser(len(arms))
	}
	d := NewDecision(name, label, arms, chooser)
	s.decisions = append(s.decisions, d)
	s.decByLabel[label] = d
	return d
}

// AllDecisions returns the session's decision points followed by those of
// every fragment session it spawned, mirroring AllInstances.
func (s *Session) AllDecisions() []*Decision {
	if len(s.fragments) == 0 {
		return s.decisions
	}
	out := append([]*Decision(nil), s.decisions...)
	for _, fs := range s.fragments {
		out = append(out, fs.AllDecisions()...)
	}
	return out
}

// Instances returns all instances created so far, in creation order.
func (s *Session) Instances() []*Instance { return s.instances }

// InstanceByLabel returns a registered instance or nil.
func (s *Session) InstanceByLabel(label string) *Instance { return s.byLabel[label] }

// FindInstances returns the labels of instances whose label contains
// substr, sorted — a convenience for the experiment harness.
func (s *Session) FindInstances(substr string) []*Instance {
	var out []*Instance
	for _, inst := range s.instances {
		if substr == "" || strings.Contains(inst.Label, substr) {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// ResetInstances drops all instances and their profiling (including spawned
// fragment sessions) but keeps the dictionary and machine; used between
// benchmark repetitions.
func (s *Session) ResetInstances() {
	s.instances = nil
	s.byLabel = make(map[string]*Instance)
	s.decisions = nil
	s.decByLabel = make(map[string]*Decision)
	s.fragments = nil
	s.Ctx.ResetCycles()
}
