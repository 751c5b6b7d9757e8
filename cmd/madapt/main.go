// Command madapt runs the Micro Adaptivity reproduction: any of the
// paper's experiments (tables and figures), the TPC-H workload under a
// chosen flavor configuration and policy, plan explanations, a
// bit-identity check of a running server, or listings of the registered
// primitive flavors and selection policies.
//
// Usage:
//
//	madapt exp all                     # every table and figure
//	madapt exp fig2 table11            # specific experiments
//	madapt exp -sf 0.05 -vecsize 256 table7
//	madapt explain -q 5                # logical plan and physical lowering
//	madapt tpch -q 12 -flavors everything -policy ucb1:c=2
//	madapt distverify -addr URL -mix all  # server results vs local execution
//	madapt policies                    # list the policy registry
//	madapt flavors -flavors branch     # dump the primitive dictionary
//	madapt list                        # list experiment ids
//
// The flags of madapt exp come before the experiment ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"microadapt/internal/bench"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/policy"
	"microadapt/internal/primitive"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "exp":
		err = cmdExp(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "tpch":
		err = cmdTPCH(os.Args[2:])
	case "distverify":
		err = cmdDistVerify(os.Args[2:])
	case "policies":
		err = cmdPolicies()
	case "flavors":
		err = cmdFlavors(os.Args[2:])
	case "list":
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "madapt:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  madapt exp [-sf F] [-seed N] [-vecsize N] [-machine machineK] <id>... | all
  madapt explain [-sf F] [-seed N] [-q N] [-pipeline-parallel P] [-encoded]
  madapt tpch [-sf F] [-q N] [-flavors defaults|everything|branch|compiler|fission|compute|unroll|decompress] [-policy SPEC] [-pipeline-parallel P] [-encoded]
  madapt distverify -addr URL [-sf F] [-seed N] [-mix 1,6,12|all]
  madapt policies
  madapt flavors [-flavors SET]
  madapt list

exp flags come before the ids: an unknown id, or a flag after an id, fails
before any experiment runs. SET is any madapt tpch -flavors value.
policy SPEC is a registry name with optional parameters, e.g. vw-greedy,
ucb1:c=2, eps-greedy:eps=0.05, fixed:arm=1 (see: madapt policies)`)
}

// benchFlags registers the shared configuration flags; call the returned
// function after fs.Parse to resolve flag values into the config.
func benchFlags(fs *flag.FlagSet) (*bench.Config, func() error) {
	cfg := bench.DefaultConfig()
	fs.Float64Var(&cfg.SF, "sf", cfg.SF, "TPC-H scale factor")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	fs.IntVar(&cfg.VectorSize, "vecsize", cfg.VectorSize, "tuples per vector")
	machine := fs.String("machine", cfg.Machine.Name, "machine profile (machine1..machine4)")
	return &cfg, func() error {
		m := hw.MachineByName(*machine)
		if m == nil {
			return fmt.Errorf("unknown machine %q", *machine)
		}
		cfg.Machine = m
		return nil
	}
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	cfg, finish := benchFlags(fs)
	// Experiments take no policy spec; madapt tpch sets these in -policy.
	fs.IntVar(&cfg.VW.ExplorePeriod, "explore-period", cfg.VW.ExplorePeriod, "vw-greedy EXPLORE_PERIOD")
	fs.IntVar(&cfg.VW.ExploitPeriod, "exploit-period", cfg.VW.ExploitPeriod, "vw-greedy EXPLOIT_PERIOD")
	fs.IntVar(&cfg.VW.ExploreLength, "explore-length", cfg.VW.ExploreLength, "vw-greedy EXPLORE_LENGTH")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment ids (try: madapt list)")
	}
	return bench.Run(*cfg, ids, os.Stdout)
}

// cmdExplain prints the logical plan and the physical lowering — with
// automatic morsel-partition annotations — of one query (or all 22).
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	def := bench.DefaultConfig()
	sf := fs.Float64("sf", def.SF, "TPC-H scale factor")
	seed := fs.Int64("seed", def.Seed, "generator seed")
	q := fs.Int("q", 0, "query number (0 = all)")
	pp := fs.Int("pipeline-parallel", 1, "intra-query pipeline parallelism (morsel partitions)")
	encoded := fs.Bool("encoded", false, "explain over a compressed-resident database (encoded scans, pushdown)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	queries, err := querySpecs(*q)
	if err != nil {
		return err
	}
	db := tpch.Generate(*sf, *seed)
	if *encoded {
		db.Encode()
	}
	for _, qs := range queries {
		fmt.Printf("-- %s\n%s\n", qs.Name, tpch.Explain(db, qs.ID, *pp))
	}
	return nil
}

// querySpecs resolves a -q flag: 0 is all 22 queries, 1-22 is one query.
func querySpecs(q int) ([]tpch.Spec, error) {
	all := tpch.Queries()
	if q == 0 {
		return all, nil
	}
	if q < 1 || q > len(all) {
		return nil, fmt.Errorf("no query %d (want 1-%d, or 0 for all)", q, len(all))
	}
	return all[q-1 : q], nil
}

func flavorOptions(name string) (primitive.Options, error) {
	switch name {
	case "defaults":
		return primitive.Defaults(), nil
	case "everything":
		return primitive.Everything(), nil
	case "branch":
		return primitive.BranchSet(), nil
	case "compiler":
		return primitive.CompilerSet(), nil
	case "fission":
		return primitive.FissionSet(), nil
	case "compute":
		return primitive.ComputeSet(), nil
	case "unroll":
		return primitive.UnrollSet(), nil
	case "decompress":
		return primitive.DecompressSet(), nil
	default:
		return primitive.Options{}, fmt.Errorf("unknown flavor set %q", name)
	}
}

func cmdTPCH(args []string) error {
	fs := flag.NewFlagSet("tpch", flag.ExitOnError)
	cfg, finish := benchFlags(fs)
	q := fs.Int("q", 0, "query number (0 = all)")
	flavors := fs.String("flavors", "everything", "flavor configuration")
	spec := fs.String("policy", "vw-greedy", "selection policy spec (see: madapt policies)")
	rows := fs.Int("rows", 10, "result rows to print")
	pp := fs.Int("pipeline-parallel", 1, "intra-query pipeline parallelism (morsel partitions)")
	encoded := fs.Bool("encoded", false, "keep tables resident in compressed columnar form (adaptive decompression scans)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	opts, err := flavorOptions(*flavors)
	if err != nil {
		return err
	}
	queries, err := querySpecs(*q)
	if err != nil {
		return err
	}
	// WarmStart stays off, so every query runs cold in its own session.
	svc := service.New(tpch.Generate(cfg.SF, cfg.Seed), service.Config{
		Flavors:             opts,
		Machine:             cfg.Machine,
		VectorSize:          cfg.VectorSize,
		Policy:              *spec,
		PipelineParallelism: *pp,
		EncodedStorage:      *encoded,
		Seed:                cfg.Seed,
	})
	if err := svc.Err(); err != nil {
		return err
	}
	if *encoded {
		flat, resident := svc.DB().StorageFootprint()
		fmt.Printf("-- encoded storage: %d -> %d resident bytes (%.1f%%)\n",
			flat, resident, 100*float64(resident)/float64(flat))
	}
	for _, qs := range queries {
		tab, st, err := svc.Execute(qs.ID)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s: %d rows, %.0f primitive cycles, %d instances, %d adaptive calls (%d off-best)\n",
			qs.Name, tab.Rows(), st.PrimCycles, st.Instances, st.AdaptiveCalls, st.OffBestCalls)
		if *rows > 0 {
			fmt.Print(engine.TableString(tab, *rows))
		}
		fmt.Println()
	}
	return nil
}

// cmdDistVerify checks a running server — single-process, shard, or a
// coordinator fronting a fleet — for bit-identical results: every query
// of the mix is executed remotely and its fingerprint compared against
// local single-process execution over the same (sf, seed) database.
func cmdDistVerify(args []string) error {
	fs := flag.NewFlagSet("distverify", flag.ExitOnError)
	addr := fs.String("addr", "", "target server base URL (required)")
	sf := fs.Float64("sf", 0.01, "scale factor of the target's database")
	seed := fs.Int64("seed", 42, "database generator seed of the target")
	mixFlag := fs.String("mix", "1,3,6,12,14,19", "comma-separated TPC-H query numbers, or \"all\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("distverify: -addr is required")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	fmt.Printf("distverify: local ground truth at sf=%g seed=%d\n", *sf, *seed)
	svc := service.New(tpch.Generate(*sf, *seed), service.DefaultConfig())
	c := server.NewClient(*addr)
	if err := c.WaitReady(30 * time.Second); err != nil {
		return err
	}
	mismatches := 0
	for _, q := range mix {
		tab, _, err := svc.Execute(q)
		if err != nil {
			return fmt.Errorf("local Q%02d: %w", q, err)
		}
		want := server.Fingerprint(tab)
		out, err := c.Query(server.QueryRequest{Query: q})
		if err != nil {
			return fmt.Errorf("remote Q%02d: %w", q, err)
		}
		if !out.OK() {
			return fmt.Errorf("remote Q%02d: status %d", q, out.Status)
		}
		status := "ok"
		if out.Response.Fingerprint != want {
			status = "MISMATCH"
			mismatches++
		}
		fmt.Printf("  Q%02d %-8s %d rows %s\n", q, status, out.Response.Rows, out.Response.Fingerprint[:12])
	}
	if mismatches > 0 {
		return fmt.Errorf("distverify: %d/%d queries differ from local ground truth", mismatches, len(mix))
	}
	fmt.Printf("distverify: %d queries bit-identical to local execution\n", len(mix))
	return nil
}

// parseMix turns "1,6,12" or "all" into a query-number list.
func parseMix(s string) ([]int, error) {
	if s == "all" {
		mix := make([]int, 22)
		for i := range mix {
			mix[i] = i + 1
		}
		return mix, nil
	}
	var mix []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		q, err := strconv.Atoi(part)
		if err != nil || q < 1 || q > 22 {
			return nil, fmt.Errorf("bad query %q in mix (want 1-22)", part)
		}
		mix = append(mix, q)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty query mix")
	}
	return mix, nil
}

// cmdPolicies lists the policy registry: every name -policy accepts, the
// parameters each takes, and whether it participates in cross-session
// warm-start.
func cmdPolicies() error {
	fmt.Printf("%-16s %-10s %-36s %s\n", "NAME", "WARM-START", "PARAMETERS", "SUMMARY")
	for _, d := range policy.Definitions() {
		warm := "no"
		if d.WarmStart {
			warm = "yes"
		}
		params := d.ParamDoc
		if params == "" {
			params = "-"
		}
		fmt.Printf("%-16s %-10s %-36s %s\n", d.Name, warm, params, d.Summary)
	}
	fmt.Println("\nspec syntax: name[:key=value,...], e.g. vw-greedy:explore=1024,exploit=8,len=2")
	return nil
}

func cmdFlavors(args []string) error {
	fs := flag.NewFlagSet("flavors", flag.ExitOnError)
	flavors := fs.String("flavors", "everything", "flavor configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := flavorOptions(*flavors)
	if err != nil {
		return err
	}
	d := primitive.NewDictionary(opts)
	sigs := d.Sigs()
	total := 0
	for _, sig := range sigs {
		p, _ := d.Lookup(sig)
		names := make([]string, len(p.Flavors))
		for i, f := range p.Flavors {
			names[i] = f.Name
		}
		total += len(p.Flavors)
		fmt.Printf("%-46s %-12s %2d flavors: %s\n", sig, p.Class, len(p.Flavors), strings.Join(names, ", "))
	}
	fmt.Printf("\n%d signatures, %d flavors\n", len(sigs), total)
	return nil
}
