package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/vector"
)

// PolicyComparison runs every warm-startable policy in the registry over
// the same TPC-H mix twice — cold sessions against an empty knowledge
// cache, then sessions warm-started from a priming pass — and reports the
// off-best-call rate (the exploration tax) of each phase. It is the
// experiment the policy-agnostic warm-start API exists for: the cache
// speaks to policies only through the Snapshotter/WarmStarter
// capabilities, so one table covers vw-greedy, the ε-strategies, ucb1 and
// thompson without a line of policy-specific harness code. Jobs run one
// after another, so the table is the same on every run.
func PolicyComparison(cfg Config) (*Report, error) {
	db := cfg.DB()
	mix := []int{1, 6, 12}
	const jobs = 18

	base := service.Config{
		Flavors:    primitive.Everything(),
		Machine:    cfg.Machine.ScaledCaches(cfg.cacheScale()),
		VectorSize: cfg.VectorSize,
		VW:         cfg.VW,
		Seed:       cfg.Seed,
	}
	perJob := func(st service.JobStats) float64 { return float64(st.OffBestCalls) / jobs }
	pct := func(st service.JobStats) float64 {
		if st.AdaptiveCalls == 0 {
			return 0
		}
		return 100 * float64(st.OffBestCalls) / float64(st.AdaptiveCalls)
	}

	rows := [][]string{{"policy", "cold off-best/job", "cold off-best%", "warm off-best/job", "warm off-best%", "cold/warm"}}
	for _, def := range policy.Definitions() {
		if !def.WarmStart {
			continue
		}
		pcfg := base
		pcfg.Policy = def.Name

		coldCfg := pcfg
		coldCfg.WarmStart = false
		cold, err := runPhase(service.New(db, coldCfg), mix, jobs)
		if err != nil {
			return nil, fmt.Errorf("policycmp %s cold: %w", def.Name, err)
		}

		warmCfg := pcfg
		warmCfg.WarmStart = true
		svc := service.New(db, warmCfg)
		// Priming pass: one run of each mix query fills the cache the way
		// earlier traffic would; excluded from the measured warm phase.
		if _, err := runPhase(svc, mix, len(mix)); err != nil {
			return nil, fmt.Errorf("policycmp %s prime: %w", def.Name, err)
		}
		warm, err := runPhase(svc, mix, jobs)
		if err != nil {
			return nil, fmt.Errorf("policycmp %s warm: %w", def.Name, err)
		}

		ratio := "inf"
		if warm.OffBestCalls > 0 {
			ratio = fmt.Sprintf("%.1fx", perJob(cold)/perJob(warm))
		} else if cold.OffBestCalls == 0 {
			ratio = "-"
		}
		rows = append(rows, []string{
			def.Name,
			fmt.Sprintf("%.1f", perJob(cold)),
			fmt.Sprintf("%.1f", pct(cold)),
			fmt.Sprintf("%.1f", perJob(warm)),
			fmt.Sprintf("%.1f", pct(warm)),
			ratio,
		})
	}

	var b strings.Builder
	mixNames := make([]string, len(mix))
	for i, q := range mix {
		mixNames[i] = fmt.Sprintf("Q%02d", q)
	}
	fmt.Fprintf(&b, "mix %s, %d jobs per phase, machine %s; off-best = adaptive calls spent on a\n"+
		"flavor other than the one the session found best (the exploration tax)\n\n",
		strings.Join(mixNames, ","), jobs, cfg.Machine.Name)
	b.WriteString(stats.FormatTable(rows))
	b.WriteString("\nwarm start flows through the Snapshotter/WarmStarter capabilities, so every\n" +
		"row uses the same cache and harness; only the learning algorithm differs.\n")

	skew, err := skewedComparison(cfg)
	if err != nil {
		return nil, err
	}
	b.WriteString(skew)

	return &Report{
		ID:    "policycmp",
		Title: "Policy comparison: cold vs. warm-started exploration tax per registered policy",
		Body:  b.String(),
	}, nil
}

// runPhase executes jobs queries, cycling through mix, one after another
// and sums their adaptive and off-best calls.
func runPhase(svc *service.Service, mix []int, jobs int) (service.JobStats, error) {
	var sum service.JobStats
	for i := 0; i < jobs; i++ {
		_, st, err := svc.Execute(mix[i%len(mix)])
		if err != nil {
			return sum, err
		}
		sum.AdaptiveCalls += st.AdaptiveCalls
		sum.OffBestCalls += st.OffBestCalls
	}
	return sum, nil
}

// skewPhase is one recurring regime of the skewed workload.
type skewPhase struct {
	name   string
	selPct int // selection threshold over uniform [0, 100) values
}

// skewedPhases alternates a highly selective regime (branching wins — the
// branch is almost never taken) with a 50% one (no-branching wins — peak
// misprediction, Figure 1's hump). A context-free bandit sees one cost
// mixture and can at best settle on a compromise arm; a contextual policy
// sees the per-batch selectivity in Features, buckets the two regimes
// apart, and runs the right flavor in each.
var skewedPhases = []skewPhase{{"sel=2%", 2}, {"sel=50%", 50}}

// skewedComparison judges each contextual policy against its context-free
// counterpart on the phase-alternating workload, reporting the off-best
// call rate per phase: calls that used a flavor other than the phase's
// measured-best one.
func skewedComparison(cfg Config) (string, error) {
	const blocks, blockCalls = 12, 256
	best := skewedBestArms(cfg)

	pairs := [][2]string{{"eps-greedy", "ctx-greedy"}, {"vw-greedy", "ctx-vw-greedy"}}
	rows := [][]string{{"policy", "off-best% " + skewedPhases[0].name, "off-best% " + skewedPhases[1].name, "off-best% overall"}}
	for _, pair := range pairs {
		for _, spec := range pair {
			off, calls, err := runSkewed(cfg, spec, best, blocks, blockCalls)
			if err != nil {
				return "", fmt.Errorf("policycmp skew %s: %w", spec, err)
			}
			totalOff, totalCalls := 0, 0
			row := []string{spec}
			for pi := range skewedPhases {
				row = append(row, fmt.Sprintf("%.1f", 100*float64(off[pi])/float64(calls[pi])))
				totalOff += off[pi]
				totalCalls += calls[pi]
			}
			row = append(row, fmt.Sprintf("%.1f", 100*float64(totalOff)/float64(totalCalls)))
			rows = append(rows, row)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "\nskewed workload: one branching/no-branching selection instance, %d blocks of\n"+
		"%d calls alternating %s and %s; Features carry the per-batch selectivity\n\n",
		blocks, blockCalls, skewedPhases[0].name, skewedPhases[1].name)
	b.WriteString(stats.FormatTable(rows))
	b.WriteString("\na contextual (ctx-) policy buckets the phases apart and should hold its\n" +
		"off-best rate at or below its context-free counterpart's.\n")
	return b.String(), nil
}

// skewedBestArms measures the ground-truth best arm per phase by running
// every flavor directly (no policy in the loop) on phase-typical data.
func skewedBestArms(cfg Config) []int {
	pin := cfg.Session(primitive.BranchSet(), fixedArm(0))
	best := make([]int, len(skewedPhases))
	for pi, ph := range skewedPhases {
		bestCost := 0.0
		for arm := 0; arm < 2; arm++ {
			c := selPrimBench(cfg, pin, arm, fmt.Sprintf("skew/pin%d/a%d", ph.selPct, arm), ph.selPct, 400)
			if arm == 0 || c < bestCost {
				best[pi], bestCost = arm, c
			}
		}
	}
	return best
}

// runSkewed drives the policy through the skewed workload and counts, per
// phase, the calls that used an arm other than the phase's best.
func runSkewed(cfg Config, spec string, best []int, blocks, blockCalls int) (off, calls []int, err error) {
	factory, err := policy.NewFactory(spec, cfg.PolicyEnv())
	if err != nil {
		return nil, nil, err
	}
	s := cfg.Session(primitive.BranchSet(), factory)
	inst := s.Instance(primitive.SelSig("<", vector.I32, false), "skew/"+spec)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.VectorSize
	col := make([]int32, n)
	out := make([]int32, n)
	off = make([]int, len(skewedPhases))
	calls = make([]int, len(skewedPhases))
	for blk := 0; blk < blocks; blk++ {
		pi := blk % len(skewedPhases)
		ph := skewedPhases[pi]
		threshold := vector.ConstI32(int32(ph.selPct))
		for j := 0; j < blockCalls; j++ {
			for i := range col {
				col[i] = int32(rng.Intn(100))
			}
			c := &core.Call{
				N: n, In: []*vector.Vector{vector.FromI32(col), threshold}, SelOut: out,
				Feat: core.Features{Valid: true, Selectivity: float64(ph.selPct) / 100},
			}
			inst.Run(s.Ctx, c)
			calls[pi]++
			if inst.LastArm != best[pi] {
				off[pi]++
			}
		}
	}
	return off, calls, nil
}
