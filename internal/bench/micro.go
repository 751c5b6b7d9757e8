package bench

import (
	"fmt"
	"math/rand"

	"microadapt/internal/aph"
	"microadapt/internal/bloom"
	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/stats"
	"microadapt/internal/vector"
)

// Table1 reproduces the stage breakdown of Table 1: almost all time of
// "SELECT l_orderkey FROM lineitem WHERE l_quantity < 40" is spent in the
// execute stage, and within it, in primitives.
func Table1(cfg Config) (*Report, error) {
	// The stage shares depend on data volume (preprocessing is constant,
	// execution scales), so this experiment uses 10x the configured SF.
	t1cfg := cfg
	t1cfg.SF = cfg.SF * 10
	db := t1cfg.DB()
	s := t1cfg.Session(primitive.Defaults(), nil)
	// Preprocess: parse + plan build, modelled as a fixed cost.
	s.Ctx.PreCycles = 25_000
	scan := engine.NewScan(s, db.Lineitem, "l_orderkey", "l_quantity")
	sel := engine.NewSelect(s, scan, "T1", engine.CmpVal(1, "<", 40))
	out, err := engine.Materialize(sel)
	if err != nil {
		return nil, err
	}
	s.Ctx.PostCycles = 0.3 * float64(out.Rows())

	total := s.Ctx.TotalCycles()
	rows := [][]string{
		{"stage", "cycles", "% of total"},
		{"preprocess", fmt.Sprintf("%.0f", s.Ctx.PreCycles), fmt.Sprintf("%.2f%%", 100*s.Ctx.PreCycles/total)},
		{"execute", fmt.Sprintf("%.0f", s.Ctx.ExecuteCycles()), fmt.Sprintf("%.2f%%", 100*s.Ctx.ExecuteCycles()/total)},
		{"  primitives", fmt.Sprintf("%.0f", s.Ctx.PrimCycles), fmt.Sprintf("%.2f%%", 100*s.Ctx.PrimCycles/total)},
		{"postprocess", fmt.Sprintf("%.0f", s.Ctx.PostCycles), fmt.Sprintf("%.2f%%", 100*s.Ctx.PostCycles/total)},
	}
	body := stats.FormatTable(rows)
	body += fmt.Sprintf("\nprimitives account for %.1f%% of the execute stage "+
		"(paper: 92.2%% of total at SF-100; shares of pre/post shrink with scale)\n",
		100*s.Ctx.PrimCycles/s.Ctx.ExecuteCycles())
	body += fmt.Sprintf("qualifying tuples: %d of %d\n", out.Rows(), db.Lineitem.Rows())
	return &Report{ID: "table1", Title: "Table 1: time spent in execution stages", Body: body}, nil
}

// selPrimBench runs one selection flavor over synthetic data at a target
// selectivity, returning cycles/tuple.
func selPrimBench(cfg Config, s *core.Session, arm int, label string, selPct int, calls int) float64 {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(selPct)))
	inst := s.Instance(primitive.SelSig("<", vector.I32, false), label)
	n := cfg.VectorSize
	col := make([]int32, n)
	out := make([]int32, n)
	threshold := vector.ConstI32(int32(selPct))
	cycles := flavorCalls(s, inst, arm, calls, func() *core.Call {
		for i := range col {
			col[i] = int32(rng.Intn(100))
		}
		return &core.Call{N: n, In: []*vector.Vector{vector.FromI32(col), threshold}, SelOut: out}
	})
	return cycles / float64(calls*n)
}

// Fig1 reproduces Figure 1: branching vs no-branching selection cost as a
// function of selectivity, with the misprediction hump at 50%.
func Fig1(cfg Config) (*Report, error) {
	s := cfg.Session(primitive.BranchSet(), fixedArm(0))
	var xs []string
	var branch, nobranch []float64
	for sel := 0; sel <= 100; sel += 5 {
		b := selPrimBench(cfg, s, 0, fmt.Sprintf("fig1/b%d", sel), sel, 400)
		nb := selPrimBench(cfg, s, 1, fmt.Sprintf("fig1/n%d", sel), sel, 400)
		branch = append(branch, b)
		nobranch = append(nobranch, nb)
		xs = append(xs, fmt.Sprintf("%d", sel))
	}
	body := chartAPH("cycles/tuple vs selectivity (0..100%)", []stats.Series{
		{Name: "branching", Values: branch},
		{Name: "no-branching", Values: nobranch},
	})
	rows := [][]string{{"selectivity%", "branching", "no-branching"}}
	for i := range xs {
		rows = append(rows, []string{xs[i], fmt.Sprintf("%.2f", branch[i]), fmt.Sprintf("%.2f", nobranch[i])})
	}
	body += stats.FormatTable(rows)
	lo, hi := crossovers(branch, nobranch)
	body += fmt.Sprintf("\ncross-over points: ~%d%% and ~%d%% selectivity "+
		"(paper: branching wins at the extremes, no-branching in between)\n", lo*5, hi*5)
	return &Report{ID: "fig1", Title: "Figure 1: (No-)Branching primitive cost vs. selectivity", Body: body}, nil
}

// crossovers returns the first and last index where a rises above b.
func crossovers(a, b []float64) (int, int) {
	first, last := -1, -1
	for i := range a {
		if a[i] > b[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// Fig5 reproduces Figure 5: the best compiler for the merge-join kernel
// depends on the machine.
func Fig5(cfg Config) (*Report, error) {
	machines := []*hw.Machine{hw.Machine1(), hw.Machine3(), hw.Machine4()}
	compilers := []string{"gcc", "icc", "clang"}
	rows := [][]string{{"machine", "gcc", "icc", "clang", "best"}}
	for _, m := range machines {
		mcfg := cfg
		mcfg.Machine = m
		s := mcfg.Session(primitive.CompilerSet(), fixedArm(0))
		var cyc []float64
		for arm := range compilers {
			cyc = append(cyc, mergejoinBench(mcfg, s, arm, fmt.Sprintf("fig5/%s/%d", m.Name, arm)))
		}
		best := compilers[argmin(cyc)]
		rows = append(rows, []string{m.Name,
			fmt.Sprintf("%.2f", cyc[0]), fmt.Sprintf("%.2f", cyc[1]), fmt.Sprintf("%.2f", cyc[2]), best})
	}
	body := stats.FormatTable(rows)
	body += "\ncycles/tuple of mergejoin_slng_col_slng_col; the paper observes gcc ~90% slower\n" +
		"on Intel machines and icc slower than clang on the AMD machine.\n"
	return &Report{ID: "fig5", Title: "Figure 5: mergejoin — best compiler depends on machine", Body: body}, nil
}

func mergejoinBench(cfg Config, s *core.Session, arm int, label string) float64 {
	inst := s.Instance("mergejoin_slng_col_slng_col", label)
	n := 200_000
	lkeys := make([]int64, n)
	rkeys := make([]int64, n)
	for i := range lkeys {
		lkeys[i] = int64(i)
		rkeys[i] = int64(i * 2) // half the keys match
	}
	st := primitive.NewMergeState(lkeys, rkeys)
	st.LOut = make([]int32, cfg.VectorSize)
	st.ROut = make([]int32, cfg.VectorSize)
	fl := inst.Prim.Flavors[arm]
	var cycles float64
	consumed := n * 2
	for !st.Done() {
		c := &core.Call{N: cfg.VectorSize, Aux: st, Inst: inst}
		_, cyc := fl.Fn(s.Ctx, c)
		cycles += cyc
	}
	return cycles / float64(consumed)
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Fig6 reproduces Figure 6: loop-fission speedup of the bloom-filter probe
// vs. filter size, per machine, with machine-dependent cross-over points.
func Fig6(cfg Config) (*Report, error) {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 128 << 20}
	var series []stats.Series
	rows := [][]string{{"size"}}
	for _, sz := range sizes {
		rows[0] = append(rows[0], sizeName(sz))
	}
	crossRows := [][]string{{"machine", "cross-over size", "max speedup"}}
	machines := hw.Machines()
	sessions := make([]*core.Session, len(machines))
	for mi, m := range machines {
		mcfg := cfg
		mcfg.Machine = m
		sessions[mi] = mcfg.Session(primitive.FissionSet(), fixedArm(0))
	}
	// The probe's cost depends only on the filter's size and the live
	// tuples, so every machine and arm probes one filter per size.
	bySize := make([][]float64, len(machines)) // [machine][size]
	for i, sz := range sizes {
		f, keys := bloomFilter(cfg, sz)
		for mi, m := range machines {
			nof := bloomBench(cfg, sessions[mi], 0, fmt.Sprintf("fig6/%s/n%d", m.Name, i), f, keys)
			fis := bloomBench(cfg, sessions[mi], 1, fmt.Sprintf("fig6/%s/f%d", m.Name, i), f, keys)
			bySize[mi] = append(bySize[mi], nof/fis)
		}
	}
	for mi, m := range machines {
		speedups := bySize[mi]
		series = append(series, stats.Series{Name: m.Name, Values: speedups})
		row := []string{m.Name}
		for _, sp := range speedups {
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		rows = append(rows, row)
		cross := "never"
		for i, sp := range speedups {
			if sp > 1 {
				cross = sizeName(sizes[i])
				break
			}
		}
		crossRows = append(crossRows, []string{m.Name, cross, fmt.Sprintf("%.2f", stats.Max(speedups))})
	}
	body := chartAPH("fission speedup vs bloom filter size (4KB..128MB, log scale)", series)
	body += stats.FormatTable(transpose(rows))
	body += "\n" + stats.FormatTable(crossRows)
	body += "\npaper: cross-over at 1MB on machine 1 but 4MB on machine 4; fission up to\n" +
		"~50% faster on large filters and ~15% slower on small ones.\n"
	return &Report{ID: "fig6", Title: "Figure 6: sel_bloomfilter speedup with loop fission", Body: body}, nil
}

func sizeName(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	default:
		return fmt.Sprintf("%dK", b>>10)
	}
}

func transpose(rows [][]string) [][]string {
	if len(rows) == 0 {
		return rows
	}
	out := make([][]string, len(rows[0]))
	for i := range out {
		out[i] = make([]string, len(rows))
		for j := range rows {
			out[i][j] = rows[j][i]
		}
	}
	return out
}

// bloomFilter fills a filter of sizeBytes to a realistic load (~20% of
// probes hit) and draws the keys of bloomCalls probe calls after the fill.
func bloomFilter(cfg Config, sizeBytes int) (*bloom.Filter, []int64) {
	f := bloom.New(sizeBytes, 2)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < sizeBytes/8; i++ {
		f.Add(rng.Int63())
	}
	keys := make([]int64, bloomCalls*cfg.VectorSize)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	return f, keys
}

const bloomCalls = 200

// bloomBench probes f with keys through flavor arm and returns the
// cycles per tuple.
func bloomBench(cfg Config, s *core.Session, arm int, label string, f *bloom.Filter, keys []int64) float64 {
	inst := s.Instance("sel_bloomfilter_slng_col", label)
	n := cfg.VectorSize
	out := make([]int32, n)
	call := 0
	cycles := flavorCalls(s, inst, arm, bloomCalls, func() *core.Call {
		batch := keys[call*n : (call+1)*n]
		call++
		return &core.Call{N: n, In: []*vector.Vector{vector.FromI64(batch)}, SelOut: out, Aux: f}
	})
	return cycles / float64(bloomCalls*n)
}

// Table4 reproduces Table 4: the interaction of hand unrolling with
// compiler SIMD and unrolling flags for dense integer multiplication, on
// machines 1 and 3.
func Table4(cfg Config) (*Report, error) {
	rows := [][]string{{"machine", "hand", "compiler SIMD+unroll", "SIMD only", "unroll only", "neither"}}
	for _, m := range []*hw.Machine{hw.Machine1(), hw.Machine3()} {
		for _, hand := range []bool{true, false} {
			handName := "unroll 8"
			if !hand {
				handName = "no unroll"
			}
			row := []string{m.Name, handName}
			for _, flags := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
				cyc := primitive.MeasureDenseMul(m, hand, flags[0], flags[1], 1<<16)
				row = append(row, fmt.Sprintf("%.2f", cyc))
			}
			rows = append(rows, row)
		}
	}
	body := stats.FormatTable(rows)
	body += "\ncycles/tuple of dense map_mul_sint_col_sint_col. Hand unrolling defeats\n" +
		"auto-vectorization, so all four compiler columns agree (paper: 1.73/2.02);\n" +
		"on machine 3 SIMD loses to unrolled scalar code (paper: 3.61 vs 2.02).\n"
	return &Report{ID: "table4", Title: "Table 4: map_mul — hand vs compiler unrolling (cycles/tuple)", Body: body}, nil
}

// Fig8 reproduces Figure 8: full-computation speedup over selective
// computation as a function of input selectivity, by machine and type.
func Fig8(cfg Config) (*Report, error) {
	var series []stats.Series
	type curve struct {
		name string
		m    *hw.Machine
		t    vector.Type
	}
	curves := []curve{
		{"mul_int m1", hw.Machine1(), vector.I32},
		{"mul_int m2", hw.Machine2(), vector.I32},
		{"mul_int m3", hw.Machine3(), vector.I32},
		{"mul_int m4", hw.Machine4(), vector.I32},
		{"mul_short m1", hw.Machine1(), vector.I16},
		{"mul_long m1", hw.Machine1(), vector.I64},
	}
	rows := [][]string{{"sel%"}}
	for sel := 0; sel <= 100; sel += 10 {
		rows = append(rows, []string{fmt.Sprintf("%d", sel)})
	}
	for _, cv := range curves {
		mcfg := cfg
		mcfg.Machine = cv.m
		s := mcfg.Session(primitive.ComputeSet(), fixedArm(0))
		var sp []float64
		for sel := 0; sel <= 100; sel += 10 {
			selective := mapMulBench(mcfg, s, cv.t, 0, fmt.Sprintf("fig8/%s/s%d", cv.name, sel), sel)
			full := mapMulBench(mcfg, s, cv.t, 1, fmt.Sprintf("fig8/%s/f%d", cv.name, sel), sel)
			sp = append(sp, selective/full)
		}
		series = append(series, stats.Series{Name: cv.name, Values: sp})
		rows[0] = append(rows[0], cv.name)
		for i, v := range sp {
			rows[i+1] = append(rows[i+1], fmt.Sprintf("%.2f", v))
		}
	}
	body := chartAPH("full-computation speedup vs input selectivity", series)
	body += stats.FormatTable(rows)
	body += "\npaper: int crosses over at ~30% on machine 1 but ~80% on machine 2; short\n" +
		"benefits much earlier; long never benefits.\n"
	return &Report{ID: "fig8", Title: "Figure 8: map_mul — full computation speedup", Body: body}, nil
}

// mapMulBench measures one compute flavor of map_mul at a given input
// selectivity (percent), returning total cycles per call (so the speedup
// ratio matches the paper's per-vector comparison).
func mapMulBench(cfg Config, s *core.Session, t vector.Type, arm int, label string, selPct int) float64 {
	sig := primitive.MapSig("*", t, "col_col")
	inst := s.Instance(sig, label)
	n := cfg.VectorSize
	a := vector.New(t, n)
	b := vector.New(t, n)
	res := vector.New(t, n)
	a.SetLen(n)
	b.SetLen(n)
	res.SetLen(n)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(selPct)))
	const calls = 200
	cycles := flavorCalls(s, inst, arm, calls, func() *core.Call {
		sel := []int32{}
		for i := 0; i < n; i++ {
			if rng.Intn(100) < selPct {
				sel = append(sel, int32(i))
			}
		}
		return &core.Call{N: n, Sel: sel, In: []*vector.Vector{a, b}, Res: res}
	})
	return cycles / calls
}

// Fig10 reproduces Figure 10: vw-greedy on three synthetic non-stationary
// flavors, with parameters (1024, 256, 32). One flavor is best at the
// start and end of the query, another in the middle.
func Fig10(cfg Config) (*Report, error) {
	totalCalls := 100_000
	costs := fig10Costs(totalCalls)
	d := core.NewDictionary()
	for fi := 0; fi < 3; fi++ {
		fi := fi
		err := d.AddFlavor("synthetic", hw.ClassMapArith, &core.Flavor{
			Name: fmt.Sprintf("flavor%d", fi+1),
			Fn: func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
				// Costs depend on query progress (the instance's global
				// call count), not on per-flavor use.
				cost := costs[fi](c.Inst.Calls)
				return c.N, cost * float64(c.N)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := core.DemoVWParams()
	s := core.NewSession(d, cfg.Machine,
		core.WithVectorSize(1000),
		core.WithChooser(func(n int) core.Chooser { return core.NewVWGreedy(n, params, rng) }))
	inst := s.Instance("synthetic", "fig10/synthetic#0")
	for call := 0; call < totalCalls; call++ {
		inst.Run(s.Ctx, &core.Call{N: 1000})
	}

	// Per-flavor reference curves (what each flavor would cost).
	hists := make([]*aph.History, 3)
	for fi := range hists {
		hists[fi] = aph.New()
		for call := 0; call < totalCalls; call++ {
			hists[fi].Add(1000, costs[fi](call)*1000)
		}
	}
	series := []stats.Series{
		{Name: "flavor 1", Values: hists[0].Series()},
		{Name: "flavor 2", Values: hists[1].Series()},
		{Name: "flavor 3", Values: hists[2].Series()},
		{Name: "adaptive", Values: inst.History().Series()},
	}
	body := chartAPH("cycles/tuple over 100K calls (EXPLORE_PERIOD=1024, EXPLOIT_PERIOD=256, EXPLORE_LENGTH=32)", series)

	adaptive := inst.Cycles
	var opt, best float64
	bestIdx := 0
	for fi, h := range hists {
		_, c := h.Totals()
		if fi == 0 || c < best {
			best, bestIdx = c, fi
		}
	}
	opt = aph.OptCycles(hists...)
	body += fmt.Sprintf("\nadaptive/OPT = %.3f; best-single-flavor (flavor %d)/OPT = %.3f — "+
		"the adaptive run tracks the minimum of the flavor curves.\n",
		adaptive/opt, bestIdx+1, best/opt)
	if adaptive >= best {
		body += "WARNING: adaptive did not beat the best single flavor on this run\n"
	}
	return &Report{ID: "fig10", Title: "Figure 10: vw-greedy in action on 3 flavors", Body: body}, nil
}

// fig10Costs builds the three cost curves of the demonstration.
func fig10Costs(total int) [3]func(int) float64 {
	mid := func(call int) float64 {
		// Smooth bump between 30% and 70% of the query.
		x := float64(call) / float64(total)
		switch {
		case x < 0.3 || x > 0.7:
			return 0
		case x < 0.4:
			return (x - 0.3) / 0.1
		case x > 0.6:
			return (0.7 - x) / 0.1
		default:
			return 1
		}
	}
	return [3]func(int) float64{
		func(c int) float64 { return 5.0 + 2.0*mid(c) }, // best at start/end
		func(c int) float64 { return 6.5 - 1.8*mid(c) }, // best mid-query
		func(c int) float64 { return 6.8 },              // never best
	}
}
