// Command benchmark is the repo's benchmark: five workloads, twelve
// end-to-end metrics, and per-layer metrics from a traced spine it
// assembles itself out of the layers' public functions. See README.md.
//
//	go run ./benchmark                        every workload, untraced then traced
//	go run ./benchmark -workload dist-n2      one workload
//	go run ./benchmark compare A.json B.json  judge B against A
//
// The driver's form runs one workload, one kind of run, and prints one JSON
// object as the last line of standard output. It is the same count-bounded
// run: -seconds S stands for -passes-scale S/20.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name     = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 42, "seed of tpch.Generate, service.Config.Seed and the mix shuffle")
		scale    = flag.Float64("passes-scale", 1, "scale every workload's pass count by this factor")
		seconds  = flag.Float64("seconds", 0, "driver's form: one workload, the result as one JSON line; stands for -passes-scale seconds/20")
		trace    = flag.String("trace", "", "0 = only the untraced run (end-to-end metrics), 1 = only the traced run (per-layer metrics); default both")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this file, one JSON object per line")
		jsonOut  = flag.String("json", "", "write the full report to this file (the input of compare)")
	)
	flag.Parse()
	opt := options{seed: *seed, passesScale: *scale, setups: 5, probeBudget: 100 * time.Millisecond, cal: newCalibrator()}

	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		run = []workload{w}
	}
	if *seconds > 0 {
		if len(run) != 1 || (*trace != "0" && *trace != "1") {
			fatalf("-seconds wants one -workload and -trace 0 or 1")
		}
		opt.passesScale = *seconds / fullRunSeconds
		os.Exit(contractMain(run[0], opt, *trace == "1", *traceOut))
	}

	rep := &report{Header: newHeader(opt)}
	fmt.Print(rep.Header.String())
	failed := false
	var spans []span
	var topID uint64
	for _, w := range run {
		var res *workloadResult
		if *trace != "1" {
			u, err := runUntraced(w, opt)
			if err != nil {
				fatalf("%v", err)
			}
			res = u
		}
		if *trace != "0" {
			t, err := runTraced(w, opt)
			if err != nil {
				fatalf("%v", err)
			}
			topID = rebase(t.spans, topID, w.Name)
			spans = append(spans, t.spans...)
			if res == nil {
				res = t
			} else {
				res.PerLayer, res.Attempted, res.Failed = t.PerLayer, res.Attempted+t.Attempted, res.Failed+t.Failed
			}
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(os.Stdout, w, res)
		failed = failed || res.Failed > 0
	}
	if *traceOut != "" {
		if err := writeSpanFile(*traceOut, spans); err != nil {
			fatalf("%v", err)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", *jsonOut, err)
		}
	}
	if failed {
		fatalf("FAILED: some results errored or differ from ground truth")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// contractResult is the one JSON object the driver reads.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractMain is the driver's form: one workload, one kind of run, the
// metrics BENCHMARK.json lists as the last line of standard output.
// Everything else goes to standard error.
func contractMain(w workload, opt options, traced bool, traceOut string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var res *workloadResult
	var err error
	var got map[string]metricValue
	listed := func(d metricDecl) bool { return d.Driver > 0 }
	decls := endToEnd
	if traced {
		if res, err = runTraced(w, opt); err == nil {
			got = res.PerLayer
		}
		decls, listed = perLayer, func(d metricDecl) bool { return layerAppliesEverywhere(d.Name) }
	} else if res, err = runUntraced(w, opt); err == nil {
		got = res.EndToEnd
	}
	if err != nil {
		return fail(err)
	}
	printWorkload(os.Stderr, w, res)
	if traceOut != "" {
		if err := writeSpanFile(traceOut, res.spans); err != nil {
			return fail(err)
		}
	}
	out := contractResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		if !listed(d) {
			continue
		}
		mv, ok := got[d.Name]
		if !ok {
			return fail(fmt.Errorf("%s did not report %s", w.Name, d.Name))
		}
		out.Metrics[d.Name] = metricValue{Value: mv.Value, Unit: mv.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// header records where and how a report was made.
type header struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        int64   `json:"seed"`
	PassesScale float64 `json:"passes_scale"`
	Setups      int     `json:"setups"`
	Date        string  `json:"date"`
}

func newHeader(opt options) header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, PassesScale: opt.passesScale, Setups: opt.setups, Date: time.Now().UTC().Format(time.RFC3339),
	}
}

func (h header) String() string {
	return fmt.Sprintf("# microadapt benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, passes-scale %g, %s\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Seed, h.PassesScale, h.Date)
}

// report is what -json writes and compare reads.
type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(f *os.File, w workload, r *workloadResult) {
	fmt.Fprintf(f, "\n== %s: sf %g, mix %v, %s, P=%d, %d client(s), closed loop; %d passes per client, %d queries attempted over all lanes and runs, %d failed; machine speed index %.3f\n",
		w.Name, w.SF, w.Mix, w.Topology, w.P, w.Clients, r.Passes, r.Attempted, r.Failed, r.Speed)
	if len(r.EndToEnd) > 0 {
		fmt.Fprintf(f, "   end to end (%d latency samples", r.Samples)
		if r.TailPct < 95 {
			fmt.Fprintf(f, ": fewer than ten beyond p95, so latency_p95_ms holds p%g", r.TailPct)
		}
		fmt.Fprintln(f, ")")
		for _, d := range endToEnd {
			if mv, ok := r.EndToEnd[d.Name]; ok {
				fmt.Fprintf(f, "   %-34s %14.4f %-7s%s\n", d.Name, mv.Value, mv.Unit, sliceNote(mv))
			}
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(f, "   per layer")
		names := make([]string, 0, len(r.PerLayer))
		for n := range r.PerLayer {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return declIndex(names[i]) < declIndex(names[j]) })
		for _, n := range names {
			mv := r.PerLayer[n]
			note := sliceNote(mv)
			if mv.Iters > 0 {
				note = fmt.Sprintf("  probe, %d iterations", mv.Iters)
			}
			fmt.Fprintf(f, "   %-40s %14.4f %-7s%s\n", n, mv.Value, mv.Unit, note)
		}
	}
}

func declIndex(name string) int {
	for i, d := range perLayer {
		if d.Name == name {
			return i
		}
	}
	return len(perLayer)
}

func sliceNote(mv metricValue) string {
	if len(mv.Slices) < 2 {
		return ""
	}
	lo, hi := mv.Slices[0], mv.Slices[0]
	for _, v := range mv.Slices {
		lo, hi = min(lo, v), max(hi, v)
	}
	note := fmt.Sprintf("  median of %d, range %.4g..%.4g", len(mv.Slices), lo, hi)
	if mv.Raw != 0 {
		note += fmt.Sprintf("; as measured %.4g", mv.Raw)
	}
	return note
}
