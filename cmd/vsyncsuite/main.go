// vsyncsuite runs the full verification corpus — every registered
// non-buggy lock's generic client across a thread-count ladder, every
// registered non-buggy workload (the nonblocking structures of
// internal/structs, at the ladder rungs within each one's supported
// range), plus the litmus conformance tests, under every memory model —
// incrementally against a persistent verdict store: cells the store has
// already decided are served by a hash lookup and their AMC runs
// skipped, cells it hasn't fan out across a worker pool and their
// decisive verdicts are appended for the next run. A warm re-run over
// an unchanged corpus does no model checking at all.
//
// The store is a shared session: two simultaneous vsyncsuite
// invocations (or a suite racing vsynccheck/vsyncopt) may point at one
// path, each observing the other's verdicts as they land; -remote URL
// additionally tiers lookups through a vsyncstored verdict service.
//
// Usage:
//
//	vsyncsuite [-store PATH] [-remote URL] [-models sc,tso,wmm]
//	           [-locks a,b,...] [-no-locks] [-structs a,b,...] [-no-structs]
//	           [-threads N] [-iters N] [-no-litmus]
//	           [-par N] [-workers N] [-min-hit-rate F] [-v]
//	           [-budget 30s] [-budget-graphs N] [-budget-mem BYTES]
//	           [-checkpoint-dir DIR] [-checkpoint-interval 5s]
//
// -threads N covers the ladder 2..N (default 2); -threads below 2,
// -iters below 1 and -par or -workers below 0 exit 2 with one line.
// -min-hit-rate F exits non-zero when the store served less than
// fraction F of the cells — CI uses it to assert that a warm pass did
// near-zero AMC work.
//
// -structs selects specific workloads by registry name (vsynccheck
// -list prints them); -no-structs drops the structure rows and
// -no-locks the lock rows, so one invocation can cover exactly one
// corpus slice (the Makefile budget-insures the heavier structure
// rungs in a dedicated pass this way).
//
// -budget* bounds each cell's AMC segment; cells that hit the budget
// or are interrupted by SIGINT/SIGTERM, running or queued, are
// undecided — neither failed nor errored — and, with -checkpoint-dir,
// persist their unexplored frontier to checkpoint files there.
// Rerunning the same command resumes exactly those cells where they
// stopped; combined with -store, everything already decided is a hash
// lookup, so a long cold suite survives any number of interruptions
// without redoing work.
//
// Exit status: 0 all lock cells verified (and hit-rate satisfied),
// 1 a lock cell failed verification or the hit-rate floor was missed,
// 2 usage or engine errors (a verdict conflict included), 3 cells left
// undecided (rerun to resume), 130 on a second signal.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/locks"
	"repro/vsync"
)

func main() {
	var (
		storePath  = cli.Store()
		remote     = cli.Remote()
		modelsFlag = flag.String("models", "", "comma-separated memory models (default: sc,tso,wmm)")
		locksFlag  = flag.String("locks", "", "comma-separated lock algorithms (default: every non-buggy one)")
		noLocks    = flag.Bool("no-locks", false, "drop the lock-client rows")
		structsF   = flag.String("structs", "", "comma-separated workload names (default: every non-buggy registered workload)")
		noStructs  = flag.Bool("no-structs", false, "drop the structure workload rows")
		threads    = flag.Int("threads", 2, "client thread-count ladder 2..N")
		iters      = flag.Int("iters", 1, "critical sections per client thread")
		noLitmus   = flag.Bool("no-litmus", false, "drop the litmus conformance corpus")
		par        = cli.Par()
		workers    = cli.Workers()
		minHitRate = cli.MinHitRate()
		budget     = cli.BudgetFlags()
		ckptDir    = cli.CheckpointDir()
		ckptInt    = cli.CheckpointInterval()
		verbose    = flag.Bool("v", false, "print the full per-cell table, not just the summary")
	)
	flag.Parse()
	cli.CheckCounts("vsyncsuite", cli.Min{Flag: "threads", Least: 2}, cli.Min{Flag: "iters", Least: 1})
	ctx := cli.SignalContext("vsyncsuite")

	cfg := vsync.MatrixConfig{
		MaxThreads:         *threads,
		Iters:              *iters,
		NoLitmus:           *noLitmus,
		NoLocks:            *noLocks,
		NoStructs:          *noStructs,
		Parallelism:        *par,
		WorkersPerRun:      workers(),
		Budget:             budget(),
		CheckpointDir:      cli.EnsureCheckpointDir("vsyncsuite", *ckptDir),
		CheckpointInterval: *ckptInt,
	}
	if *modelsFlag != "" {
		for _, name := range strings.Split(*modelsFlag, ",") {
			cfg.Models = append(cfg.Models, cli.ParseModel("vsyncsuite", strings.TrimSpace(name)))
		}
	}
	if *locksFlag != "" {
		for _, name := range strings.Split(*locksFlag, ",") {
			alg := locks.ByName(strings.TrimSpace(name))
			if alg == nil {
				fmt.Fprintf(os.Stderr, "vsyncsuite: unknown lock %q (see vsynccheck -list)\n", name)
				os.Exit(2)
			}
			cfg.Locks = append(cfg.Locks, alg)
		}
	}
	if *structsF != "" {
		for _, name := range strings.Split(*structsF, ",") {
			w := vsync.WorkloadByName(strings.TrimSpace(name))
			if w == nil {
				fmt.Fprintf(os.Stderr, "vsyncsuite: unknown workload %q (see vsynccheck -list)\n", name)
				os.Exit(2)
			}
			cfg.Structs = append(cfg.Structs, w)
		}
	}
	st := cli.OpenStore("vsyncsuite", *storePath, *remote)
	if st != nil {
		defer st.Close()
		cfg.Store = st
	}

	res := vsync.VerifyMatrixCtx(ctx, cfg)
	if *verbose {
		fmt.Print(res.Report())
	} else {
		fmt.Print(res.Summary())
	}
	if res.StoreErr != nil {
		// The verdicts themselves are sound (append failures never taint
		// a cell), but this run did not warm the store the way the
		// operator believes — the next run will redo the skipped work.
		fmt.Fprintf(os.Stderr, "vsyncsuite: warning: store append failed, some verdicts were not persisted: %v\n", res.StoreErr)
	}
	for _, c := range res.Cells {
		if why := any(c.Verdict); c.Failed() {
			if c.Err != nil {
				why = c.Err
			}
			fmt.Fprintf(os.Stderr, "vsyncsuite: %s under %s: %v\n", c.Program, c.Model, why)
		}
	}
	switch {
	case res.Errors > 0:
		os.Exit(2)
	case res.Failures > 0:
		os.Exit(1)
	case res.Undecided > 0:
		// Unfinished, not failed: cells a budget or an interrupt stopped
		// (checkpointed with -checkpoint-dir); a rerun decides them.
		if cfg.CheckpointDir != "" {
			fmt.Fprintf(os.Stderr, "vsyncsuite: %d cells undecided, checkpointed to %s — rerun the same command to resume\n",
				res.Undecided, cfg.CheckpointDir)
		} else {
			fmt.Fprintf(os.Stderr, "vsyncsuite: %d cells undecided — rerun with -checkpoint-dir to make them resumable\n", res.Undecided)
		}
		os.Exit(cli.ExitUndecided)
	case res.HitRate() < *minHitRate:
		fmt.Fprintf(os.Stderr, "vsyncsuite: hit rate %.1f%% below required %.1f%% — the warm pass did AMC work it should have skipped\n",
			100*res.HitRate(), 100**minHitRate)
		os.Exit(1)
	}
}
