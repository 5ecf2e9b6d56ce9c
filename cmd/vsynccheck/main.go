// vsynccheck model-checks one synchronization primitive — a lock's
// generic client or a registered workload — with Await Model Checking.
//
// Usage:
//
//	vsynccheck -lock mcs [-model wmm] [-threads 2] [-iters 1] [-sc] [-dot out.dot] [-workers N] [-no-symmetry]
//	vsynccheck -workload structs/treiber [-model wmm] [-threads 2] [-sc] [-dot out.dot] [-workers N] [-no-symmetry]
//	vsynccheck -list
//	vsynccheck ... [-budget 30s] [-budget-graphs N] [-budget-mem BYTES]
//	              [-checkpoint-dir DIR] [-checkpoint-interval 5s]
//
// -workload checks a registered workload from the structure-agnostic
// workload layer (the nonblocking structures of internal/structs:
// Treiber stack, Michael–Scott queue, seqlock) at -threads client
// threads; it refuses -iters, for each workload carries its own
// operation count. -list prints both corpora, locks first, then
// workloads with their supported thread ranges, in stable name order.
// -lock checks the lock's generic client, the workload mutex/NAME with
// -iters critical sections per thread. Either way -threads must lie in
// the workload's range (t>=1 for a lock) and -iters must be at least
// 1, or vsynccheck exits 2 with one line.
//
// -store PATH consults the persistent verdict store first — a problem
// some earlier run already decided (same model, same barrier spec, same
// program shape) is answered by a hash lookup with no model checking —
// and appends every decisive verdict this invocation computes. The
// store is a shared session: simultaneous tools on one path pool their
// verdicts, and -remote URL additionally tiers lookups through a
// vsyncstored verdict service.
//
// -workers enables intra-run work stealing: the exploration frontier of
// the run is shared by N workers of its own (0 = GOMAXPROCS, 1 = the
// sequential DFS).
//
// vsynccheck checks one problem. A corpus — every correct lock, every
// structure, the litmus tests — is vsyncsuite's job: for example
// `vsyncsuite -no-structs -no-litmus -models wmm -threads 3` verifies
// every correct lock's client at t=2 and t=3.
//
// -no-symmetry disables thread-symmetry reduction, exploring every
// thread relabeling instead of one canonical representative per orbit —
// the verdict is guaranteed identical; the flag exists as a
// differential oracle and for apples-to-apples state-count comparisons.
//
// -budget* bounds a run segment (wall clock, popped graphs, heap); a
// budget hit — or a SIGINT/SIGTERM — drains the run cleanly and, with
// -checkpoint-dir, persists the unexplored frontier to a
// content-addressed checkpoint file there; rerunning the same command
// resumes exactly where it stopped, converging on the same verdict an
// uninterrupted run produces. -checkpoint-interval additionally
// snapshots the live frontier periodically, bounding what even a
// kill -9 can lose.
//
// Exit status 0 on successful verification, 1 on a violation, 2 on
// usage or checker errors, 3 undecided (budget hit or interrupted;
// checkpointed when -checkpoint-dir is set), 130 on a second signal.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/workload"
	"repro/vsync"
)

func main() {
	var (
		lockName  = flag.String("lock", "", "lock algorithm to verify (see -list)")
		wlName    = flag.String("workload", "", "registered workload to verify (see -list)")
		model     = cli.Model()
		threads   = flag.Int("threads", 2, "contending threads in the generic client")
		iters     = flag.Int("iters", 1, "critical sections per thread")
		scOnly    = flag.Bool("sc", false, "verify the sc-only (all-SC barrier) variant")
		dotOut    = flag.String("dot", "", "write the counterexample graph as Graphviz DOT to this file")
		list      = flag.Bool("list", false, "list registered algorithms and exit")
		noSym     = flag.Bool("no-symmetry", false, "disable thread-symmetry reduction (differential oracle: same verdict, every thread relabeling explored)")
		workers   = cli.Workers()
		storePath = cli.Store()
		remote    = cli.Remote()
		budget    = cli.BudgetFlags()
		ckptDir   = cli.CheckpointDir()
		ckptInt   = cli.CheckpointInterval()
	)
	flag.Parse()
	ctx := cli.SignalContext("vsynccheck")

	if *list {
		// Stable order for scripting: locks.All and workload.All both
		// sort by name. Locks appear once, in the historical format; the
		// workload corpus follows with its supported thread ranges.
		for _, alg := range locks.All() {
			tag := ""
			if alg.Buggy {
				tag = "  [known-buggy study case]"
			}
			fmt.Printf("%-16s %s%s\n", alg.Name, alg.Doc, tag)
		}
		for _, w := range workload.All() {
			tag := ""
			if w.Buggy() {
				tag = "  [known-buggy study case]"
			}
			lo, hi := w.Threads()
			rng := fmt.Sprintf("t=%d..%d", lo, hi)
			if hi == 0 {
				rng = fmt.Sprintf("t>=%d", lo)
			}
			fmt.Printf("%-24s %-8s %s%s\n", w.Name(), rng, w.Doc(), tag)
		}
		return
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "iters" && *wlName != "" {
			fmt.Fprintln(os.Stderr, "vsynccheck: -iters does not apply to -workload (a workload carries its own operation count)")
			os.Exit(2)
		}
	})
	cli.CheckCounts("vsynccheck", cli.Min{Flag: "iters", Least: 1})
	dir := cli.EnsureCheckpointDir("vsynccheck", *ckptDir)
	m := cli.ParseModel("vsynccheck", *model)
	if (*lockName == "") == (*wlName == "") {
		fmt.Fprintln(os.Stderr, "vsynccheck: exactly one of -lock or -workload is required (try -list)")
		os.Exit(2)
	}
	// A lock is checked through its generic client, which is one more
	// workload: both kinds take the same range check and builder.
	var w workload.Workload
	if *lockName != "" {
		alg := locks.ByName(*lockName)
		if alg == nil {
			fmt.Fprintf(os.Stderr, "vsynccheck: unknown lock %q (try -list)\n", *lockName)
			os.Exit(2)
		}
		w = workload.Mutex(alg, *iters)
	} else if w = workload.ByName(*wlName); w == nil {
		fmt.Fprintf(os.Stderr, "vsynccheck: unknown workload %q (try -list)\n", *wlName)
		os.Exit(2)
	}
	if err := workload.CheckThreads(w, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "vsynccheck:", err)
		os.Exit(2)
	}
	st := cli.OpenStore("vsynccheck", *storePath, *remote)
	if st != nil {
		defer st.Close()
	}
	spec := w.DefaultSpec()
	if *scOnly {
		spec = spec.AllSC()
	}
	p := workload.Program(w, spec, *threads)
	runStore := st
	if st != nil && *dotOut != "" {
		// A counterexample graph only exists on a real run; don't let a
		// store hit silently skip the artifact the user asked for.
		fmt.Println("note: -dot requested, bypassing the verdict store for this check")
		runStore = nil
	}
	opts := vsync.RunOptions{
		Parallelism:        1,
		WorkersPerRun:      workers(),
		Store:              runStore,
		StoreKeys:          []vsync.StoreKey{vsync.ProblemKey(m, spec, p)},
		Budget:             budget(),
		CheckpointDir:      dir,
		CheckpointInterval: *ckptInt,
		NoSymmetry:         *noSym,
	}
	shape := fmt.Sprintf("%d threads × %d iterations", *threads, *iters)
	if *wlName != "" {
		shape = fmt.Sprintf("%d threads", *threads)
	}
	fmt.Printf("checking %s under %s (%s, %d workers)...\n", p.Name, m.Name(), shape, opts.WorkersPerRun)
	rr := vsync.RunCtx(ctx, m, []*vsync.Program{p}, opts)
	res := rr.Results[0]
	if rr.StoreHits > 0 {
		fmt.Printf("%s under %s: %s (verdict served from store, no AMC run)\n", p.Name, m.Name(), res.Verdict)
		if res.Verdict != core.OK {
			os.Exit(1)
		}
		return
	}
	if rr.StoreErr != nil {
		fmt.Fprintln(os.Stderr, "vsynccheck: warning:", rr.StoreErr)
	}
	if res.Verdict == core.Error {
		fmt.Println(res)
		os.Exit(2)
	}
	if res.Verdict == core.Undecided {
		// The deepest runs this tool makes end here: report them in full.
		fmt.Print(res.Report())
		fmt.Println(resumeHint(dir))
		os.Exit(cli.ExitUndecided)
	}
	if !res.Ok() {
		fmt.Println(res)
		if res.Witness != nil {
			fmt.Println("\ncounterexample execution graph:")
			fmt.Println(res.Witness.Render())
			if *dotOut != "" {
				if err := os.WriteFile(*dotOut, []byte(res.Witness.DOT(p.Name)), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "vsynccheck:", err)
				} else {
					fmt.Println("DOT graph written to", *dotOut)
				}
			}
		}
		os.Exit(1)
	}
	fmt.Print(res.Report())
}

// resumeHint tells the operator how to pick an undecided run back up.
func resumeHint(ckptDir string) string {
	if ckptDir == "" {
		return "undecided: the budget (or an interrupt) stopped the search; rerun with -checkpoint-dir to make such runs resumable"
	}
	return "undecided: frontier checkpointed to " + ckptDir + " — rerun the same command to resume where it stopped"
}
