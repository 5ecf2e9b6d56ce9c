package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// compareFiles prints, for every workload and end-to-end metric, the
// medians of A (the parent) and B (the change), B's relative change and
// the bound, with one of three marks:
//
//	REGRESSED   B's median is worse than A's by more than the bound
//	unresolved  the run-to-run spread (quartile distance over median, the
//	            wider of the two files) exceeds the bound, so a change
//	            within it cannot be told from noise — unless every run of
//	            B reads better than every run of A, which is ok
//	ok          otherwise
//
// Any failed invocation in B beyond A's, and any pinned count that
// differs, is a regression too. The exit status is 1 when anything
// regressed, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultsFile) int {
	fmt.Fprintf(w, "A: commit %s, %s, nproc %d, seed %d\nB: commit %s, %s, nproc %d, seed %d\n\n",
		a.Stamp.Commit, a.Stamp.Go, a.Stamp.NProc, a.Stamp.Seed, b.Stamp.Commit, b.Stamp.Go, b.Stamp.NProc, b.Stamp.Seed)
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "")
	regressed := false
	for _, name := range slices.Sorted(maps.Keys(a.Workloads)) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from B  REGRESSED\n", name)
			regressed = true
			continue
		}
		for _, d := range a.EndToEnd {
			va, vb := metricValues(wa, d.Name), metricValues(wb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-12s no runs  REGRESSED\n", name, d.Name)
				regressed = true
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := (mb - ma) / ma // positive: B reads higher
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			spread := max(spreadOf(va), spreadOf(vb))
			mark := "ok"
			switch {
			case worse > d.Bound:
				mark = "REGRESSED"
				regressed = true
			case spread > d.Bound && !allBetter(vb, va, d.Better):
				mark = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, d.Name, ma, mb, 100*change, 100*spread, 100*d.Bound, mark)
		}
		fa, fb := failedShare(wa), failedShare(wb)
		mark := "ok"
		if fb > fa {
			mark = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-12s %12.6g %12.6g %32s\n", name, "failed_share", fa, fb, mark)
		for _, pin := range slices.Sorted(maps.Keys(wa.Pins)) {
			if got, ok := wb.Pins[pin]; !ok || got != wa.Pins[pin] {
				fmt.Fprintf(w, "%-16s pin %s: A %d, B %d  REGRESSED\n", name, pin, wa.Pins[pin], got)
				regressed = true
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func metricValues(wr *workloadResults, name string) []float64 {
	var out []float64
	for _, r := range wr.Runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spreadOf is the distance between the first and third quartile as a
// share of the median; a single run has no spread to speak of.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	return share(q3-q1, q2)
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(b, a []float64, better string) bool {
	lo, hi := a[0], a[0]
	for _, v := range a {
		lo, hi = min(lo, v), max(hi, v)
	}
	for _, v := range b {
		if (better == "lower" && v >= lo) || (better == "higher" && v <= hi) {
			return false
		}
	}
	return true
}

func failedShare(wr *workloadResults) float64 {
	attempted, failed := 0, 0
	for _, r := range wr.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return share(float64(failed), float64(attempted))
}
