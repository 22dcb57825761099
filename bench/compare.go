package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one (workload, end-to-end metric) comparison.
type row struct {
	workload, metric, unit string
	base, other            float64
	bound                  float64
	verdict                string
}

// judged is one metric -compare rules on. A relative bound is a share of
// base; an absolute one is a difference in the metric's own unit.
type judged struct {
	metricDecl
	absolute bool
}

// judgedMetrics is every end-to-end metric of BENCHMARK.json plus the two
// that cannot be driver metrics because a healthy run reports a constant:
// fail_ratio, which may not rise at all, and bolt_rw's recovered_txn_ratio,
// which may not fall by more than the 0.05 it moves between runs today.
func judgedMetrics() []judged {
	var out []judged
	for _, d := range endToEnd {
		out = append(out, judged{metricDecl: d})
	}
	return append(out,
		judged{metricDecl{Name: failRatio, Unit: "ratio", Better: "lower", Bound: 0}, true},
		judged{metricDecl{Name: recoveredRatio, Unit: "ratio", Better: "higher", Bound: 0.05}, true})
}

// judge compares other against base for one metric. A pair that cannot be
// judged (base 0 for a relative bound) is unresolved, never ok.
func judge(d judged, base, other float64) string {
	worse := other - base
	if d.Better == "higher" {
		worse = -worse
	}
	if !d.absolute {
		if base == 0 {
			return verdictUnresolved
		}
		worse /= base
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareReports lists one row per workload and end-to-end metric present in
// either report; a metric or workload missing on one side is unresolved.
func compareReports(a, b *report) []row {
	names := map[string]bool{}
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	decls := judgedMetrics()
	var rows []row
	for _, w := range sorted {
		ra, rb := a.Workloads[w], b.Workloads[w]
		for _, d := range decls {
			var ma, mb metric
			var oka, okb bool
			if ra != nil {
				ma, oka = ra.EndToEnd[d.Name]
			}
			if rb != nil {
				mb, okb = rb.EndToEnd[d.Name]
			}
			if !oka && !okb {
				continue
			}
			r := row{workload: w, metric: d.Name, unit: d.Unit, base: ma.Value, other: mb.Value, bound: d.Bound, verdict: verdictUnresolved}
			if oka && okb {
				r.verdict = judge(d, ma.Value, mb.Value)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Quick {
		return nil, fmt.Errorf("%s is a -quick run: too short to compare", path)
	}
	return &r, nil
}

// runCompare prints the comparison of two BENCH.json files, the first being
// the base of every ratio, and returns 1 when any row regressed.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two BENCH.json paths: base, then the run judged against it")
		return 2
	}
	var reps [2]*report
	for i, p := range paths {
		r, err := readReport(p)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		reps[i] = r
	}
	fmt.Fprintf(stdout, "base  %s commit %s seed %d GOMAXPROCS %d\nother %s commit %s seed %d GOMAXPROCS %d\n",
		paths[0], reps[0].Commit, reps[0].Seed, reps[0].GOMAXPROCS["bench"],
		paths[1], reps[1].Commit, reps[1].Seed, reps[1].GOMAXPROCS["bench"])
	fmt.Fprintf(stdout, "%-11s %-27s %14s %14s %-5s %20s %6s  %s\n", "workload", "metric", "base", "other", "unit", "other/base", "bound", "verdict")
	code := 0
	for _, r := range compareReports(reps[0], reps[1]) {
		ratio := "-"
		if r.base != 0 {
			ratio = fmt.Sprintf("%.4f of %.4g", r.other/r.base, r.base)
		}
		fmt.Fprintf(stdout, "%-11s %-27s %14.4f %14.4f %-5s %20s %6.2f  %s\n",
			r.workload, r.metric, r.base, r.other, r.unit, ratio, r.bound, r.verdict)
		if r.verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}
