// vsyncbench runs the §4.2 evaluation campaign on the simulated ARMv8
// and x86 platforms and prints the paper's tables and figures, plus the
// AMC hot-path benchmark suite that tracks the checker's own speed —
// including the intra-run work-stealing scaling curve (graphs/sec at
// 1/2/4/8 workers on the 3-thread MCS client) and the acyclicity-engine
// micro rows. (The verdict store's cold and warm suite passes are
// measured from process start by benchmark/, the benchmark of record.)
//
// Usage:
//
//	vsyncbench              # quick campaign (Tables 2–5, Figs. 23–26)
//	vsyncbench -full        # the paper's full parameter grid
//	vsyncbench -fig27       # the MCS implementation comparison
//	vsyncbench -sweep       # the §4.2.2 cs_size / es_size findings
//	vsyncbench -amc         # checker hot-path suite -> BENCH_amc.json
//
// Regression gate (make bench-check):
//
//	vsyncbench -amc -amcjson "" -amcbaseline BENCH_amc.json
//
// compares the fresh run against the committed baseline and exits
// non-zero when any row's graphs_per_sec regresses beyond the
// tolerance (-amcchecktol, default 25%).
//
// Hot-path investigation:
//
//	vsyncbench -amc -cpuprofile cpu.out -memprofile mem.out
//
// writes pprof profiles of whichever mode ran, for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/wmsim"
)

// parseWorkers parses a comma-separated worker ladder like "1,2,4,8".
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		full        = flag.Bool("full", false, "run the paper's full parameter grid")
		fig27       = flag.Bool("fig27", false, "run the Fig. 27 MCS implementation comparison")
		sweep       = flag.Bool("sweep", false, "run the §4.2.2 critical/outside section size sweeps")
		amc         = flag.Bool("amc", false, "run the AMC hot-path benchmark suite (graphs/sec, allocs, scaling)")
		amcRuns     = flag.Int("amcruns", 5, "measured runs per target in the AMC suite")
		amcJSON     = flag.String("amcjson", "BENCH_amc.json", "path of the AMC suite JSON artifact (empty: don't write)")
		amcWorkers  = flag.String("amcworkers", "1,2,4,8", "worker ladder for the AMC scaling targets (empty: skip them)")
		amcBaseline = flag.String("amcbaseline", "", "compare the fresh -amc run against this baseline artifact and fail on regressions")
		amcBest     = flag.Int("amcbest", 1, "repeat the AMC suite this many times and keep each row's best run (noise armor for -amcbaseline)")
		amcCheckTol = flag.Float64("amcchecktol", 0.25, "graphs/sec regression tolerance for -amcbaseline (fraction)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	ctx := cli.SignalContext("vsyncbench")

	cpuStarted := false
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpuStarted = true
	}

	runErr := run(ctx, modes{
		amc: *amc, full: *full, fig27: *fig27, sweep: *sweep,
		amcRuns: *amcRuns, amcJSON: *amcJSON, amcWorkers: *amcWorkers, amcBest: *amcBest,
		amcBaseline: *amcBaseline, amcCheckTol: *amcCheckTol,
	})

	// Flush both profiles before any fatal exit: log.Fatal skips defers,
	// and a CPU profile without its StopCPUProfile trailer is unreadable.
	if cpuStarted {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // material for the heap profile, not the transients
		werr := pprof.WriteHeapProfile(f)
		f.Close()
		if werr != nil {
			log.Fatalf("memprofile: %v", werr)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil {
			// Interrupted between phases: profiles and any artifacts
			// written so far are flushed and valid; exit with the
			// conventional signal status.
			fmt.Fprintln(os.Stderr, "vsyncbench:", runErr)
			os.Exit(130)
		}
		log.Fatal(runErr)
	}
}

// modes bundles the parsed mode flags for run.
type modes struct {
	amc, full, fig27, sweep bool
	amcRuns, amcBest        int
	amcJSON, amcWorkers     string
	amcBaseline             string
	amcCheckTol             float64
}

// run executes the selected mode, returning (not exiting on) failures
// so the caller can flush profiles first. Between phases (repeated
// suite passes, per-machine sweeps) it honors ctx: an interrupt stops
// before the next phase with everything already measured flushed.
func run(ctx context.Context, m modes) error {
	start := time.Now()
	amc, full, fig27, sweep := m.amc, m.full, m.fig27, m.sweep
	switch {
	case amc:
		ladder, err := parseWorkers(m.amcWorkers)
		if err != nil {
			return fmt.Errorf("-amcworkers: %v", err)
		}
		suite := bench.RunAMCSuiteWorkers(m.amcRuns, ladder)
		for i := 1; i < m.amcBest; i++ {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted after %d of %d suite passes", i, m.amcBest)
			}
			suite = bench.BestOfAMC(suite, bench.RunAMCSuiteWorkers(m.amcRuns, ladder))
		}
		fmt.Print(suite)
		if m.amcJSON != "" {
			if err := suite.WriteJSON(m.amcJSON); err != nil {
				return fmt.Errorf("writing %s: %v", m.amcJSON, err)
			}
			fmt.Printf("wrote %s\n", m.amcJSON)
		}
		if bad := suite.Errors(); len(bad) > 0 {
			return fmt.Errorf("checker errors on: %v", bad)
		}
		if m.amcBaseline != "" {
			baseline, err := bench.ReadAMCSuite(m.amcBaseline)
			if err != nil {
				return fmt.Errorf("-amcbaseline: %v", err)
			}
			if bad := bench.CompareAMC(baseline, suite, m.amcCheckTol); len(bad) > 0 {
				for _, line := range bad {
					fmt.Fprintln(os.Stderr, "bench-check:", line)
				}
				return fmt.Errorf("bench-check: %d row(s) regressed against %s", len(bad), m.amcBaseline)
			}
			fmt.Printf("bench-check: no graphs/sec regressions against %s (tolerance %.0f%%)\n",
				m.amcBaseline, 100*m.amcCheckTol)
		}
	case fig27:
		for _, mc := range wmsim.Machines() {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted before %s", mc.Name)
			}
			fmt.Println(bench.Fig27(mc, bench.PaperThreads, 3, 150_000))
		}
	case sweep:
		for _, mc := range wmsim.Machines() {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted before %s", mc.Name)
			}
			for _, th := range []int{1, 8} {
				out, _ := bench.CSSweep(mc, "mcs", th, []int{1, 4, 16, 64}, 150_000)
				fmt.Println(out)
			}
			out, _ := bench.ESSweep(mc, "mcs", 8, []int{0, 4, 16}, 150_000)
			fmt.Println(out)
		}
	default:
		cfg := bench.Quick()
		if full {
			cfg = bench.Default()
		}
		fmt.Println(bench.CampaignReport(cfg))
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
