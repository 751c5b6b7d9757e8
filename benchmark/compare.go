package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing" // A has the row and B does not: counted as regressed
)

// compareRow is one workload x end-to-end metric judgement.
type compareRow struct {
	workload, metric, unit string
	a, b                   float64
	worse                  float64 // share of a by which b is worse; negative when better
	spread                 float64 // wider of the two sides' per-slice spreads (quartile distance / median); 0 for counters, which have no slices
	bound                  float64
	verdict                string
}

// judge compares one metric of reference a and candidate b. b regressed
// when it is worse than a by more than the bound and by more than the
// slices of either run spread; when the slices spread wider than the bound
// and b is not clearly worse, the runs cannot tell and the row is
// unresolved, not unchanged.
func judge(d metricDecl, bound float64, a, b metricValue) compareRow {
	row := compareRow{metric: d.Name, unit: d.Unit, a: a.Value, b: b.Value, bound: bound,
		spread: max(relSpread(a.Slices), relSpread(b.Slices)), verdict: verdictOK}
	switch {
	case a.Value != 0:
		row.worse = (b.Value - a.Value) / a.Value
	case b.Value != 0:
		row.worse = 1 // from nothing to something
	}
	if d.Better == "higher" {
		row.worse = -row.worse
	}
	switch {
	case row.worse > bound && row.worse > row.spread:
		row.verdict = verdictRegressed
	case row.spread > bound:
		row.verdict = verdictUnresolved
	}
	return row
}

// compareReports judges every workload x end-to-end metric of A. A row B
// lacks (a workload that was dropped or crashed, a metric no longer
// reported) is missing, never silently skipped.
func compareReports(a, b *report) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		for _, d := range endToEnd {
			ma, ok := wa.EndToEnd[d.Name]
			if !ok {
				continue
			}
			row := compareRow{metric: d.Name, unit: d.Unit, a: ma.Value, bound: d.boundOn(wa.Name), verdict: verdictMissing}
			if wb != nil {
				if mb, ok := wb.EndToEnd[d.Name]; ok {
					row = judge(d, d.boundOn(wa.Name), ma, mb)
				}
			}
			row.workload = wa.Name
			rows = append(rows, row)
		}
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) (regressed, unresolved int) {
	fmt.Fprintf(w, "%-17s %-22s %14s %14s %-7s %9s %8s %7s  %s\n",
		"workload", "metric", "A", "B", "unit", "B worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-22s %14.4f %14.4f %-7s %+8.2f%% %7.2f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.unit, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		switch r.verdict {
		case verdictRegressed, verdictMissing:
			regressed++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "%d rows: %d regressed, %d unresolved. \"B worse\" is (B-A)/A with A as its base, sign turned so that positive is worse.\n",
		len(rows), regressed, unresolved)
	return regressed, unresolved
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain is `go run ./benchmark compare A.json B.json`; it exits
// non-zero when any row regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a.Header.Seed != b.Header.Seed || a.Header.PassesScale != b.Header.PassesScale {
		// Other inputs or another amount of work: the counters of two such
		// runs differ without anything having regressed.
		fmt.Fprintf(os.Stderr, "benchmark: A ran seed %d at passes-scale %g, B seed %d at %g: not the same work\n",
			a.Header.Seed, a.Header.PassesScale, b.Header.Seed, b.Header.PassesScale)
		return 2
	}
	if regressed, _ := printCompare(os.Stdout, compareReports(a, b)); regressed > 0 {
		return 1
	}
	return 0
}
