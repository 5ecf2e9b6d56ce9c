package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input: a tool invocation that is timed from
// outside, the check of what it printed, and the in-process pass that
// attributes its time to layers.
type workload struct {
	name string
	why  string
	// args returns the tool and arguments of one invocation; scratch is
	// a fresh directory that is removed when the invocation has ended.
	args func(e *env, scratch string) (bin string, args []string)
	// check judges one finished invocation against the expectations.
	check func(x *expected, inv *invocation) (observed, error)
	// study marks the workload whose correctness pass also runs the
	// known-buggy study cases.
	study bool
	// pass is one traced in-process run; pinned names the counts in its
	// sample that must repeat exactly from pass to pass.
	pass   func(h *bench, tr *tracer) (sample, error)
	pinned []string
}

// observed is what a check read from a correct invocation's output.
type observed struct {
	self time.Duration    // how long the tool says its own work took
	pins map[string]int64 // counts that must repeat exactly across invocations
}

// workloads is the benchmark of record, in the order results are listed.
var workloads = []*workload{
	treiberCell("treiber-t3-seq", 3, 1,
		"One long sequential exploration (104,890 states): core, mm and graph do all the work, store, vprog and process start none."),
	treiberCell("treiber-t3-par", 3, 2,
		"The same cell under two work-stealing workers: sharded visited set, allocator and GC are shared, so a sequential win that costs the parallel path shows."),
	{
		name: "opt-qspin-t3",
		why:  "Push-button barrier optimization of the Linux qspinlock: 29 medium AMC runs, most ending at their first violation, plus fingerprinting and the verdict cache.",
		args: func(e *env, scratch string) (string, []string) {
			return "vsyncopt", []string{"-lock", "qspin", "-threads", "3", "-par", "1"}
		},
		check:  checkOpt,
		pass:   optPass,
		pinned: []string{"optimize.verifications", "optimize.cache_lookups"},
	},
	{
		name: "suite-cold",
		why:  "Wide and shallow: 144 cells, 132 short AMC runs and as many store appends, so per-cell fixed costs and process start dominate; a deep-cell change must not move it.",
		args: func(e *env, scratch string) (string, []string) {
			return "vsyncsuite", []string{"-par", "2", "-v", "-store", filepath.Join(scratch, "v.log")}
		},
		check:  checkSuiteCold,
		study:  true,
		pass:   func(h *bench, tr *tracer) (sample, error) { return suitePass(h, tr, false) },
		pinned: []string{"vsync.cells", "vsync.amc_runs", "vsync.deduped"},
	},
	{
		name: "suite-warm",
		why:  "The same suite served from a 200,000-record verdict log: no AMC run, the time is log scan, CRC, index build, 144 fingerprints and lookups; what CI pays on every push.",
		args: func(e *env, scratch string) (string, []string) {
			return "vsyncsuite", []string{"-par", "2", "-min-hit-rate", "1", "-store", e.warm}
		},
		check:  checkSuiteWarm,
		pass:   func(h *bench, tr *tracer) (sample, error) { return suitePass(h, tr, true) },
		pinned: []string{"vsync.cells", "vsync.amc_runs"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// treiberCell is one exhaustive check of the Treiber stack under wmm.
// The sequential explorer repeats its traversal exactly; with several
// workers only the execution count is schedule-independent.
func treiberCell(name string, threads, workers int, why string) *workload {
	cell := fmt.Sprintf("structs/treiber/t%d-i1", threads)
	pinned := []string{"core.executions"}
	if workers == 1 {
		pinned = append(pinned, "core.states_popped")
	}
	return &workload{
		name: name,
		why:  why,
		args: func(e *env, scratch string) (string, []string) {
			return "vsynccheck", []string{"-workload", "structs/treiber",
				"-threads", strconv.Itoa(threads), "-workers", strconv.Itoa(workers)}
		},
		check: func(x *expected, inv *invocation) (observed, error) {
			verdict, self, counts := parseCheck(inv.out)
			want := x.verdict(cell, "wmm")
			if inv.exit != 0 || verdict != want {
				return observed{}, fmt.Errorf("%s: exit %d, verdict %q, want exit 0 and %q", cell, inv.exit, verdict, want)
			}
			pins := map[string]int64{"core.executions": counts[0]}
			if workers == 1 {
				pins["core.states_popped"] = counts[1]
			}
			return observed{self: self, pins: pins}, nil
		},
		pass:   func(h *bench, tr *tracer) (sample, error) { return cellPass(h, tr, threads, workers, cell) },
		pinned: pinned,
	}
}

var (
	okLine      = regexp.MustCompile(`(?m)^ok: (\d+) executions, (\d+) graphs explored in (\S+)$`)
	violation   = regexp.MustCompile(`(?m)^(safety violation|await-termination violation): `)
	modesLine   = regexp.MustCompile(`(?m)^modes: (.*) \| (\d+) verifications in (\S+)$`)
	cacheLine   = regexp.MustCompile(`(?m)^cache: (\d+) hits / (\d+) lookups`)
	suiteRow    = regexp.MustCompile(`(?m)^(\S+)\s+(\S+)\s+(ok|forbidden|ALLOWED|await-hang|undecided|canceled|ERROR|FAILED: .*?)\s+(amc|store|dup)\s+\S+\s*$`)
	suiteLine   = regexp.MustCompile(`(?m)^suite: (\d+) cells in (\S+) — (\d+) store hits, (\d+) AMC runs`)
	storeBanner = regexp.MustCompile(`(?m)^store: .* — (\d+) verdicts loaded, code epoch ([0-9a-f]{32})`)
)

// The regular expressions above only match digits and Go durations, so
// a failed conversion cannot happen; 0 keeps the callers simple.
func atoi(s string) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n }

func parseDur(s string) time.Duration { d, _ := time.ParseDuration(s); return d }

// parseCheck reads vsynccheck's output: the verdict class, the duration
// the tool reports (ok runs only) and the executions and popped counts.
func parseCheck(out string) (verdict string, self time.Duration, counts [2]int64) {
	if m := okLine.FindStringSubmatch(out); m != nil {
		return "ok", parseDur(m[3]), [2]int64{atoi(m[1]), atoi(m[2])}
	}
	if m := violation.FindStringSubmatch(out); m != nil {
		return m[1], 0, counts
	}
	return "", 0, counts
}

func checkOpt(x *expected, inv *invocation) (observed, error) {
	m := modesLine.FindStringSubmatch(inv.out)
	if inv.exit != 0 || m == nil {
		return observed{}, fmt.Errorf("vsyncopt: exit %d, no modes line", inv.exit)
	}
	if want := x.Optimize["qspin"]; m[1] != want {
		return observed{}, fmt.Errorf("vsyncopt: final modes %q, want %q", m[1], want)
	}
	pins := map[string]int64{"optimize.verifications": atoi(m[2])}
	if c := cacheLine.FindStringSubmatch(inv.out); c != nil {
		pins["optimize.cache_lookups"] = atoi(c[2])
	}
	return observed{self: parseDur(m[3]), pins: pins}, nil
}

// checkSuite reads the summary line both suite workloads print.
func checkSuite(x *expected, inv *invocation) (cells, hits, runs int64, self time.Duration, err error) {
	m := suiteLine.FindStringSubmatch(inv.out)
	if inv.exit != 0 || m == nil {
		return 0, 0, 0, 0, fmt.Errorf("vsyncsuite: exit %d, no summary line: %s", inv.exit, lastLine(inv.out))
	}
	cells, hits, runs = atoi(m[1]), atoi(m[3]), atoi(m[4])
	if want := int64(x.suiteCells()); cells != want {
		return 0, 0, 0, 0, fmt.Errorf("vsyncsuite: %d cells, the expectations describe %d", cells, want)
	}
	return cells, hits, runs, parseDur(m[2]), nil
}

// checkSuiteCold compares every row of the verbose table with the
// expected verdict of its cell.
func checkSuiteCold(x *expected, inv *invocation) (observed, error) {
	cells, hits, runs, self, err := checkSuite(x, inv)
	if err != nil {
		return observed{}, err
	}
	if hits != 0 {
		return observed{}, fmt.Errorf("vsyncsuite: %d store hits on a fresh store", hits)
	}
	rows := suiteRow.FindAllStringSubmatch(inv.out, -1)
	if int64(len(rows)) != cells {
		return observed{}, fmt.Errorf("vsyncsuite: table has %d rows for %d cells", len(rows), cells)
	}
	for _, r := range rows {
		if want := x.verdict(r[1], r[2]); r[3] != want {
			return observed{}, fmt.Errorf("vsyncsuite: %s under %s is %q, want %q", r[1], r[2], r[3], want)
		}
	}
	return observed{self: self, pins: map[string]int64{"vsync.cells": cells, "vsync.amc_runs": runs}}, nil
}

// checkSuiteWarm wants every cell served by the store, out of a log that
// still holds all of the filler.
func checkSuiteWarm(x *expected, inv *invocation) (observed, error) {
	cells, hits, runs, self, err := checkSuite(x, inv)
	if err != nil {
		return observed{}, err
	}
	if hits != cells || runs != 0 {
		return observed{}, fmt.Errorf("vsyncsuite: %d of %d cells served by the store, %d AMC runs", hits, cells, runs)
	}
	m := storeBanner.FindStringSubmatch(inv.out)
	if m == nil {
		return observed{}, fmt.Errorf("vsyncsuite: no store banner")
	}
	return observed{self: self, pins: map[string]int64{
		"vsync.cells": cells, "vsync.amc_runs": runs, "store.loaded": atoi(m[1]),
	}}, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
