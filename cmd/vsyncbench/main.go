// vsyncbench runs the §4.2 evaluation campaign on the simulated ARMv8
// and x86 platforms and prints the paper's tables and figures. (The
// checker's own speed is measured by benchmark/, the benchmark of
// record; its kernels by `go test -bench`.)
//
// Usage:
//
//	vsyncbench              # quick campaign (Tables 2–5, Figs. 23–26)
//	vsyncbench -full        # the paper's full parameter grid
//	vsyncbench -fig27       # the MCS implementation comparison
//	vsyncbench -sweep       # the §4.2.2 cs_size / es_size findings
//
// -cpuprofile and -memprofile write pprof profiles of whichever mode
// ran, for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/wmsim"
)

func main() {
	var (
		full       = flag.Bool("full", false, "run the paper's full parameter grid")
		fig27      = flag.Bool("fig27", false, "run the Fig. 27 MCS implementation comparison")
		sweep      = flag.Bool("sweep", false, "run the §4.2.2 critical/outside section size sweeps")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
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

	runErr := run(ctx, *full, *fig27, *sweep)

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
			// Interrupted between phases: the profiles are flushed
			// and valid; exit with the conventional signal status.
			fmt.Fprintln(os.Stderr, "vsyncbench:", runErr)
			os.Exit(130)
		}
		log.Fatal(runErr)
	}
}

// run executes the selected mode, returning (not exiting on) failures
// so the caller can flush profiles first. Between machines it honors
// ctx: an interrupt stops before the next one.
func run(ctx context.Context, full, fig27, sweep bool) error {
	start := time.Now()
	switch {
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
