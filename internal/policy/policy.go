package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"microadapt/internal/core"
	"microadapt/internal/heuristics"
	"microadapt/internal/hw"
)

// Env supplies the ambient context policy builders may need: the machine
// profile (heuristics thresholds are machine-relative), the base vw-greedy
// parameters (spec parameters override individual knobs), and the base
// seed of the deterministic random streams. The zero value is usable:
// machine1, the paper's default vw-greedy parameters, seed 0.
type Env struct {
	Machine *hw.Machine
	VW      core.VWParams
	Seed    int64
}

func (e Env) machine() *hw.Machine {
	if e.Machine == nil {
		return hw.Machine1()
	}
	return e.Machine
}

func (e Env) vw() core.VWParams {
	if e.VW.ExplorePeriod < 1 {
		return core.DefaultVWParams()
	}
	return e.VW
}

// rngStride spaces per-chooser seeds (a large odd multiplier, the PCG
// default): callers hand out consecutive Env seeds (one per session), so a
// stride of 1 would alias chooser j of one session with chooser j-1 of the
// next and correlate their exploration. Multiplication wraps; distinctness
// is preserved because the stride is odd.
const rngStride = 6364136223846793005

// rngSeq returns a deterministic sequence of per-chooser random number
// generators derived from the env seed. Giving every chooser its own
// stream (instead of sharing one *rand.Rand across the factory's
// choosers) keeps the factory itself safe to invoke from concurrently
// running sessions; each individual chooser remains single-threaded, as
// the Chooser contract requires. Generators seed on first draw
// (core.NewLazyRand): a chooser that never explores never pays for one.
func (e Env) rngSeq() func() *rand.Rand {
	var ctr atomic.Int64
	base := e.Seed
	return func() *rand.Rand {
		return core.NewLazyRand(base + ctr.Add(1)*rngStride)
	}
}

// Definition describes one registered policy.
type Definition struct {
	// Name is the registry key, e.g. "vw-greedy".
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// ParamDoc documents the accepted spec parameters, e.g.
	// "explore=N,exploit=N,len=N".
	ParamDoc string
	// WarmStart reports whether the policy implements the WarmStarter and
	// Snapshotter capabilities, i.e. participates in cross-session
	// knowledge exchange.
	WarmStart bool

	build func(a *args, env Env) core.ChooserFactory
}

// aliases maps legacy spellings onto registry names.
var aliases = map[string]string{
	"vwgreedy":      "vw-greedy",
	"epsgreedy":     "eps-greedy",
	"epsfirst":      "eps-first",
	"epsdecreasing": "eps-decreasing",
	"roundrobin":    "round-robin",
	"ctxgreedy":     "ctx-greedy",
	"ctxvwgreedy":   "ctx-vw-greedy",
}

// registry holds every known policy, in presentation order.
var registry = []Definition{
	{
		Name:      "vw-greedy",
		Summary:   "the paper's algorithm: deterministic explore/exploit phases ranked by windowed cost (§3.2)",
		ParamDoc:  "explore=N,exploit=N,len=N,warmup=N,sweep=BOOL",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			p := env.vw()
			p.ExplorePeriod = a.Int("explore", p.ExplorePeriod)
			p.ExploitPeriod = a.Int("exploit", p.ExploitPeriod)
			p.ExploreLength = a.Int("len", p.ExploreLength)
			p.WarmupSkip = a.Int("warmup", p.WarmupSkip)
			p.InitialSweep = a.Bool("sweep", p.InitialSweep)
			a.check(p.ExplorePeriod >= 1, "explore", p.ExplorePeriod, ">= 1")
			a.check(p.ExploitPeriod >= 1, "exploit", p.ExploitPeriod, ">= 1")
			a.check(p.ExploreLength >= 1, "len", p.ExploreLength, ">= 1")
			a.check(p.WarmupSkip >= 0, "warmup", p.WarmupSkip, ">= 0")
			rng := env.rngSeq()
			return func(n int) core.Chooser { return core.NewVWGreedy(n, p, rng()) }
		},
	},
	{
		Name:      "eps-greedy",
		Summary:   "explore a random arm with probability eps, else exploit the all-history mean (linear regret)",
		ParamDoc:  "eps=F",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			eps := a.Float("eps", 0.05)
			a.check(eps >= 0 && eps <= 1, "eps", eps, "0..1")
			rng := env.rngSeq()
			return func(n int) core.Chooser { return core.NewEpsGreedy(n, eps, rng()) }
		},
	},
	{
		Name:      "eps-first",
		Summary:   "explore for the first eps*horizon calls, then commit (cannot adapt to change)",
		ParamDoc:  "eps=F,horizon=N",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			eps := a.Float("eps", 0.01)
			horizon := a.Int("horizon", 30000)
			a.check(eps >= 0 && eps <= 1, "eps", eps, "0..1")
			a.check(horizon >= 1, "horizon", horizon, ">= 1")
			rng := env.rngSeq()
			return func(n int) core.Chooser { return core.NewEpsFirst(n, eps, horizon, rng()) }
		},
	},
	{
		Name:      "eps-decreasing",
		Summary:   "eps-greedy with eps_t = min(1, c/t): logarithmic regret on stationary costs",
		ParamDoc:  "c=F",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			c := a.Float("c", 1.0)
			a.check(c >= 0, "c", c, ">= 0")
			rng := env.rngSeq()
			return func(n int) core.Chooser { return core.NewEpsDecreasing(n, c, rng()) }
		},
	},
	{
		Name:      "ucb1",
		Summary:   "lowest confidence bound over windowed costs (UCB1 adapted to non-stationary minimization)",
		ParamDoc:  "c=F,alpha=F",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			c := a.Float("c", 0.25)
			alpha := a.Float("alpha", 0.2)
			a.check(c > 0, "c", c, "> 0")
			a.check(alpha > 0 && alpha <= 1, "alpha", alpha, "0..1")
			return func(n int) core.Chooser { return core.NewUCB1(n, c, alpha) }
		},
	},
	{
		Name:      "thompson",
		Summary:   "Thompson sampling from a windowed Gaussian cost belief per arm",
		ParamDoc:  "alpha=F",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			alpha := a.Float("alpha", 0.2)
			a.check(alpha > 0 && alpha <= 1, "alpha", alpha, "0..1")
			rng := env.rngSeq()
			return func(n int) core.Chooser { return core.NewThompson(n, alpha, rng()) }
		},
	},
	{
		Name:      "ctx-greedy",
		Summary:   "contextual eps-greedy: an independent eps-greedy bandit per feature bucket (selectivity quartile x encoding)",
		ParamDoc:  "eps=F",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			eps := a.Float("eps", 0.05)
			a.check(eps >= 0 && eps <= 1, "eps", eps, "0..1")
			rng := env.rngSeq()
			return func(n int) core.Chooser {
				return core.NewContextual(n, func() core.Chooser { return core.NewEpsGreedy(n, eps, rng()) })
			}
		},
	},
	{
		Name:      "ctx-vw-greedy",
		Summary:   "contextual vw-greedy: the paper's algorithm bucketed by call features, one bandit per regime",
		ParamDoc:  "explore=N,exploit=N,len=N,warmup=N,sweep=BOOL",
		WarmStart: true,
		build: func(a *args, env Env) core.ChooserFactory {
			p := env.vw()
			p.ExplorePeriod = a.Int("explore", p.ExplorePeriod)
			p.ExploitPeriod = a.Int("exploit", p.ExploitPeriod)
			p.ExploreLength = a.Int("len", p.ExploreLength)
			p.WarmupSkip = a.Int("warmup", p.WarmupSkip)
			p.InitialSweep = a.Bool("sweep", p.InitialSweep)
			a.check(p.ExplorePeriod >= 1, "explore", p.ExplorePeriod, ">= 1")
			a.check(p.ExploitPeriod >= 1, "exploit", p.ExploitPeriod, ">= 1")
			a.check(p.ExploreLength >= 1, "len", p.ExploreLength, ">= 1")
			a.check(p.WarmupSkip >= 0, "warmup", p.WarmupSkip, ">= 0")
			rng := env.rngSeq()
			return func(n int) core.Chooser {
				return core.NewContextual(n, func() core.Chooser { return core.NewVWGreedy(n, p, rng()) })
			}
		},
	},
	{
		Name:     "heuristics",
		Summary:  "the hard-coded threshold rules of §4.2 (selectivity, density, bloom size); no learning",
		ParamDoc: "lo=F,hi=F,full=F",
		build: func(a *args, env Env) core.ChooserFactory {
			th := heuristics.Default()
			th.NoBranchLo = a.Float("lo", th.NoBranchLo)
			th.NoBranchHi = a.Float("hi", th.NoBranchHi)
			th.FullCompSel = a.Float("full", th.FullCompSel)
			a.check(th.NoBranchLo >= 0 && th.NoBranchLo <= th.NoBranchHi && th.NoBranchHi <= 1, "lo", th.NoBranchLo, "0 <= lo <= hi <= 1")
			a.check(th.FullCompSel >= 0 && th.FullCompSel <= 1, "full", th.FullCompSel, "0..1")
			return heuristics.Factory(env.machine(), th)
		},
	},
	{
		Name:     "fixed",
		Summary:  "always the same arm (clamped to the instance's flavor count); the baseline-build policy",
		ParamDoc: "arm=N",
		build: func(a *args, env Env) core.ChooserFactory {
			arm := a.Int("arm", 0)
			a.check(arm >= 0, "arm", arm, ">= 0")
			return func(n int) core.Chooser {
				a := arm
				if a >= n {
					a = n - 1
				}
				if a < 0 {
					a = 0
				}
				return core.NewFixed(a)
			}
		},
	},
	{
		Name:    "round-robin",
		Summary: "cycle deterministically through the arms; the worst-case reference policy",
		build: func(a *args, env Env) core.ChooserFactory {
			return func(n int) core.Chooser { return core.NewRoundRobin(n) }
		},
	},
}

// Definitions returns every registered policy, in presentation order.
func Definitions() []Definition {
	return append([]Definition(nil), registry...)
}

// Lookup resolves a registry name (or a legacy alias).
func Lookup(name string) (Definition, bool) {
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Definition{}, false
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// NewFactory parses a spec string and builds a chooser factory under env.
// The factory builds one fresh chooser per primitive instance, each with
// its own deterministic random stream derived from env.Seed, so a factory
// may serve concurrently running sessions; the choosers themselves are
// single-threaded, as the core.Chooser contract requires.
func NewFactory(spec string, env Env) (core.ChooserFactory, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return NewFactoryFromSpec(sp, env)
}

// NewFactoryFromSpec is NewFactory over an already parsed Spec.
func NewFactoryFromSpec(sp Spec, env Env) (core.ChooserFactory, error) {
	def, ok := Lookup(sp.Name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", sp.Name, Names())
	}
	a := newArgs(sp)
	f := def.build(a, env)
	if err := a.finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustFactory is NewFactory for specs known at compile time; it panics on
// error (an experiment-harness wiring bug, not an input error).
func MustFactory(spec string, env Env) core.ChooserFactory {
	f, err := NewFactory(spec, env)
	if err != nil {
		panic("policy: " + err.Error())
	}
	return f
}
