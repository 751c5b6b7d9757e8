package policy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"microadapt/internal/core"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in     string
		name   string
		params map[string]string
		err    bool
	}{
		{in: "vw-greedy", name: "vw-greedy", params: map[string]string{}},
		{in: "  ucb1  ", name: "ucb1", params: map[string]string{}},
		{in: "vw-greedy:explore=1024,exploit=8,len=2", name: "vw-greedy",
			params: map[string]string{"explore": "1024", "exploit": "8", "len": "2"}},
		{in: "eps-greedy: eps = 0.05 ", name: "eps-greedy", params: map[string]string{"eps": "0.05"}},
		{in: "fixed:arm=3", name: "fixed", params: map[string]string{"arm": "3"}},
		{in: "", err: true},
		{in: ":a=1", err: true},
		{in: "x:novalue", err: true},
		{in: "x:=1", err: true},
		{in: "x:a=1,a=2", err: true},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q) should error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if sp.Name != c.name || len(sp.Params) != len(c.params) {
			t.Errorf("ParseSpec(%q) = %+v", c.in, sp)
		}
		for k, v := range c.params {
			if sp.Params[k] != v {
				t.Errorf("ParseSpec(%q) param %s = %q, want %q", c.in, k, sp.Params[k], v)
			}
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec("vw-greedy:len=2,explore=1024")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.String(); got != "vw-greedy:explore=1024,len=2" {
		t.Errorf("canonical form = %q", got)
	}
	if got := (Spec{Name: "ucb1"}).String(); got != "ucb1" {
		t.Errorf("parameterless form = %q", got)
	}
}

func TestRegistryShape(t *testing.T) {
	want := []string{"vw-greedy", "eps-greedy", "eps-first", "eps-decreasing",
		"fixed", "round-robin", "heuristics", "ucb1", "thompson",
		"ctx-greedy", "ctx-vw-greedy"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d policies %v, want %d", len(names), names, len(want))
	}
	if len(Definitions()) != len(names) {
		t.Errorf("Definitions() has %d entries, Names() %d", len(Definitions()), len(names))
	}
	for _, w := range want {
		if _, ok := Lookup(w); !ok {
			t.Errorf("registry missing %q", w)
		}
	}
	// Legacy aliases resolve.
	for alias, canonical := range aliases {
		d, ok := Lookup(alias)
		if !ok || d.Name != canonical {
			t.Errorf("alias %q -> %q broken", alias, canonical)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown name should not resolve")
	}
}

// TestZeroChooseContextValidEverywhere pins the ChooseContext contract:
// the zero value means "no context" and every registry policy — contextual
// ones included — must choose a legal arm on it and accept the matching
// observation. This is what keeps trace replay and synthetic tests working
// against any policy a user configures.
func TestZeroChooseContextValidEverywhere(t *testing.T) {
	env := Env{Seed: 11}
	for _, def := range Definitions() {
		factory, err := NewFactory(def.Name, env)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		ch := factory(3)
		if ch.Name() == "" {
			t.Errorf("%s chooser has no name", def.Name)
		}
		for i := 0; i < 20; i++ {
			arm := ch.Choose(core.ChooseContext{})
			if arm < 0 || arm >= 3 {
				t.Fatalf("%s: Choose(zero context) = %d, want 0..2", def.Name, arm)
			}
			ch.Observe(core.Observation{Arm: arm, Tuples: 10, Cycles: float64(10 + arm)})
		}
	}
}

func TestNewFactoryErrors(t *testing.T) {
	if _, err := NewFactory("nope", Env{}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
	if _, err := NewFactory("ucb1:bogus=1", Env{}); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown parameter error = %v", err)
	}
	if _, err := NewFactory("ucb1:c=abc", Env{}); err == nil || !strings.Contains(err.Error(), "not a valid") {
		t.Errorf("bad value error = %v", err)
	}
	// Out-of-range values are errors, not silent defaults.
	for _, spec := range []string{
		"ucb1:c=-1", "ucb1:alpha=5", "thompson:alpha=0",
		"eps-greedy:eps=2", "eps-first:horizon=0", "eps-decreasing:c=-1",
		"vw-greedy:explore=0", "fixed:arm=-1", "heuristics:lo=0.9,hi=0.1",
	} {
		if _, err := NewFactory(spec, Env{}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("NewFactory(%q) = %v, want out-of-range error", spec, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFactory on a bad spec should panic")
		}
	}()
	MustFactory("nope", Env{})
}

// TestWarmStartCapabilityDeclarations: the registry's WarmStart flag must
// match what the built choosers actually implement — a mismatch would make
// the service silently skip (or wrongly expect) knowledge exchange.
func TestWarmStartCapabilityDeclarations(t *testing.T) {
	for _, def := range Definitions() {
		ch := MustFactory(def.Name, Env{})(3)
		_, ws := ch.(core.WarmStarter)
		_, sn := ch.(core.Snapshotter)
		if def.WarmStart && (!ws || !sn) {
			t.Errorf("%s declares WarmStart but implements WarmStarter=%v Snapshotter=%v", def.Name, ws, sn)
		}
		if !def.WarmStart && (ws || sn) {
			t.Errorf("%s implements capabilities but does not declare WarmStart", def.Name)
		}
	}
}

// TestEveryPolicyStaysInRange is the registry-wide safety property: every
// policy, fuzzed over arm counts and random observations (including
// zero-tuple calls, missing call context, and random warm-start priors),
// only ever returns arms in [0, n) and never panics — including the n == 1
// degenerate every single-flavor primitive hits.
func TestEveryPolicyStaysInRange(t *testing.T) {
	specs := []string{
		"vw-greedy", "vw-greedy:explore=8,exploit=2,len=1,warmup=0,sweep=false",
		"eps-greedy", "eps-greedy:eps=1.0",
		"eps-first", "eps-first:eps=0.5,horizon=10",
		"eps-decreasing", "eps-decreasing:c=5",
		"fixed", "fixed:arm=99",
		"round-robin",
		"heuristics",
		"ucb1", "ucb1:c=0.5,alpha=0.9",
		"thompson", "thompson:alpha=0.9",
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range []int{1, 2, 3, 8} {
				for trial := 0; trial < 3; trial++ {
					f := MustFactory(spec, Env{Seed: int64(trial)})
					ch := f(n)
					if ws, ok := ch.(core.WarmStarter); ok && trial == 1 {
						priors := make([]float64, n)
						for i := range priors {
							switch rng.Intn(4) {
							case 0:
								priors[i] = math.Inf(1)
							case 1:
								priors[i] = math.NaN()
							case 2:
								priors[i] = -5
							default:
								priors[i] = rng.Float64() * 100
							}
						}
						ws.SeedPriors(priors)
					}
					for call := 0; call < 500; call++ {
						arm := ch.Choose(core.ChooseContext{})
						if arm < 0 || arm >= n {
							t.Fatalf("%s over %d arms chose %d on call %d", spec, n, arm, call)
						}
						tuples := rng.Intn(3) * rng.Intn(64) // often 0
						ch.Observe(core.Observation{Arm: arm, Tuples: tuples, Cycles: rng.Float64() * 1000})
					}
					if name := ch.Name(); name == "" {
						t.Errorf("%s chooser has no name", spec)
					}
				}
			}
		})
	}
}

// TestLearningPoliciesFindBestArm: every warm-startable policy must
// converge on a clearly cheapest arm in a stationary scenario — the basic
// sanity bar for calling something a learning policy.
func TestLearningPoliciesFindBestArm(t *testing.T) {
	costs := []float64{9, 2, 7}
	for _, def := range Definitions() {
		if !def.WarmStart {
			continue
		}
		ch := MustFactory(def.Name, Env{Seed: 3})(len(costs))
		use := make([]int, len(costs))
		for call := 0; call < 4000; call++ {
			arm := ch.Choose(core.ChooseContext{})
			use[arm]++
			ch.Observe(core.Observation{Arm: arm, Tuples: 100, Cycles: costs[arm] * 100})
		}
		if use[1] < 2400 {
			t.Errorf("%s used the best arm %d/4000 times, want dominant (use=%v)", def.Name, use[1], use)
		}
	}
}

// TestWarmStartSkipsKnownArms: seeding full priors must steer every
// warm-startable policy to the known-best arm essentially immediately.
func TestWarmStartSkipsKnownArms(t *testing.T) {
	priors := []float64{9, 2, 7}
	for _, def := range Definitions() {
		if !def.WarmStart {
			continue
		}
		ch := MustFactory(def.Name, Env{Seed: 4})(len(priors))
		ch.(core.WarmStarter).SeedPriors(priors)
		use := make([]int, len(priors))
		for call := 0; call < 400; call++ {
			arm := ch.Choose(core.ChooseContext{})
			use[arm]++
			ch.Observe(core.Observation{Arm: arm, Tuples: 100, Cycles: priors[arm] * 100})
		}
		if use[1] < 300 {
			t.Errorf("%s with full priors used best arm only %d/400 (use=%v)", def.Name, use[1], use)
		}
	}
}

// TestSeedPriorsNeverDisplaceLiveKnowledge: SeedPriors has one semantics
// across every WarmStarter — priors fill gaps, they never overwrite costs
// the chooser measured itself, even when (mis)called mid-session.
func TestSeedPriorsNeverDisplaceLiveKnowledge(t *testing.T) {
	for _, def := range Definitions() {
		if !def.WarmStart {
			continue
		}
		ch := MustFactory(def.Name, Env{Seed: 6})(2)
		for call := 0; call < 400; call++ {
			arm := ch.Choose(core.ChooseContext{})
			ch.Observe(core.Observation{Arm: arm, Tuples: 100, Cycles: []float64{2, 8}[arm] * 100})
		}
		before, live := ch.(core.Snapshotter).Snapshot()
		ch.(core.WarmStarter).SeedPriors([]float64{1000, 0.01}) // absurd stale cache
		after, _ := ch.(core.Snapshotter).Snapshot()
		for i := range before {
			if live[i] && after[i] != before[i] {
				t.Errorf("%s: late prior displaced live cost of arm %d: %v -> %v",
					def.Name, i, before[i], after[i])
			}
		}
	}
}

// TestSnapshotDoesNotEchoPriors: arms known only through SeedPriors must
// come back from Snapshot with measured=false, for every warm-startable
// policy — the invariant the shared flavor cache depends on.
func TestSnapshotDoesNotEchoPriors(t *testing.T) {
	for _, def := range Definitions() {
		if !def.WarmStart {
			continue
		}
		ch := MustFactory(def.Name, Env{Seed: 5})(3)
		ch.(core.WarmStarter).SeedPriors([]float64{5, 1, 9})
		// Observe only arm 1 (what every policy should be choosing).
		for call := 0; call < 50; call++ {
			ch.Observe(core.Observation{Arm: 1, Tuples: 100, Cycles: 100})
		}
		costs, measured := ch.(core.Snapshotter).Snapshot()
		if len(costs) != 3 || len(measured) != 3 {
			t.Fatalf("%s snapshot shape %d/%d", def.Name, len(costs), len(measured))
		}
		if !measured[1] {
			t.Errorf("%s: the observed arm must be marked measured", def.Name)
		}
		if measured[0] || measured[2] {
			t.Errorf("%s: seeded-but-unobserved arms marked measured (%v)", def.Name, measured)
		}
	}
}

// TestLazySourceKeepsChooserStreams: generators seed on first draw, yet
// emit exactly the eager stream — core.NewLazyRand against
// rand.New(rand.NewSource(seed)) over mixed Int63/Float64/Uint64 draws
// (both source methods), again after a re-Seed; and chooser k of a factory
// still draws the stream of seed + k*rngStride.
func TestLazySourceKeepsChooserStreams(t *testing.T) {
	same := func(name string, lazy, eager *rand.Rand) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			if l, e := lazy.Int63(), eager.Int63(); l != e {
				t.Fatalf("%s draw %d: Int63 %d, want %d", name, i, l, e)
			}
			if l, e := lazy.Float64(), eager.Float64(); l != e {
				t.Fatalf("%s draw %d: Float64 %v, want %v", name, i, l, e)
			}
			if l, e := lazy.Uint64(), eager.Uint64(); l != e {
				t.Fatalf("%s draw %d: Uint64 %d, want %d", name, i, l, e)
			}
		}
	}
	for _, seed := range []int64{0, 1, -7, rngStride} {
		lazy, eager := core.NewLazyRand(seed), rand.New(rand.NewSource(seed))
		same("fresh", lazy, eager)
		lazy.Seed(seed + 1)
		eager.Seed(seed + 1)
		same("re-seeded", lazy, eager)
	}
	next := Env{Seed: 41}.rngSeq()
	for k := int64(1); k <= 3; k++ {
		same("chooser stream", next(), rand.New(rand.NewSource(41+k*rngStride)))
	}
}
