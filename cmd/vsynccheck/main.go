// vsynccheck model-checks a synchronization primitive (or a built-in
// litmus test) with Await Model Checking.
//
// Usage:
//
//	vsynccheck -lock mcs [-model wmm] [-threads 2] [-iters 1] [-sc] [-dot out.dot] [-workers N] [-no-symmetry]
//	vsynccheck -workload structs/treiber [-model wmm] [-threads 2] [-sc] [-dot out.dot] [-workers N] [-no-symmetry]
//	vsynccheck -all [-par N] [-workers N]
//	vsynccheck -list
//	vsynccheck ... [-budget 30s] [-budget-graphs N] [-budget-mem BYTES]
//	              [-checkpoint-dir DIR] [-checkpoint-interval 5s]
//
// -workload checks a registered workload from the structure-agnostic
// workload layer (the nonblocking structures of internal/structs:
// Treiber stack, Michael–Scott queue, seqlock) at -threads client
// threads; -iters does not apply — each workload carries its own
// operation count. -list prints both corpora, locks first, then
// workloads with their supported thread ranges, in stable name order.
//
// -store PATH consults the persistent verdict store first — a problem
// some earlier run already decided (same model, same barrier spec, same
// program shape) is answered by a hash lookup with no model checking —
// and appends every decisive verdict this invocation computes. The
// store is a shared session: simultaneous tools on one path pool their
// verdicts, and -remote URL additionally tiers lookups through a
// vsyncstored verdict service.
//
// -all verifies every registered correct (non-study-case) algorithm,
// fanning the AMC runs across -par workers (0 = GOMAXPROCS); the first
// failure cancels the remaining runs.
//
// -workers enables intra-run work stealing: the exploration frontier of
// each single run is shared by up to N workers (0 = GOMAXPROCS,
// 1 = the sequential DFS). Under -all the same pool slots serve both
// whole runs and stolen items, so the last big run soaks up slots its
// finished siblings released.
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
	"repro/internal/harness"
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
		all       = flag.Bool("all", false, "verify every registered correct algorithm in parallel")
		noSym     = flag.Bool("no-symmetry", false, "disable thread-symmetry reduction (differential oracle: same verdict, every thread relabeling explored)")
		par       = cli.Par()
		workers   = cli.Workers()
		storePath = cli.Store()
		remote    = cli.Remote()
		budget    = cli.BudgetFlags()
		ckptDir   = cli.CheckpointDir()
		ckptInt   = cli.CheckpointInterval()
	)
	flag.Parse()
	ctx := cli.SignalContext("vsynccheck")
	dir := cli.EnsureCheckpointDir("vsynccheck", *ckptDir)

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
	m := cli.ParseModel("vsynccheck", *model)
	st := cli.OpenStore("vsynccheck", *storePath, *remote)
	if st != nil {
		defer st.Close()
	}
	// What both modes below ask of Run; each adds its programs' keys, its
	// parallelism and its store.
	opts := vsync.RunOptions{
		WorkersPerRun:      *workers,
		Budget:             budget(),
		CheckpointDir:      dir,
		CheckpointInterval: *ckptInt,
		NoSymmetry:         *noSym,
	}

	if *all {
		var ps []*vsync.Program
		for _, alg := range locks.All() {
			if alg.Buggy {
				continue
			}
			spec := alg.DefaultSpec()
			p := harness.MutexClient(alg, spec, *threads, *iters)
			ps = append(ps, p)
			opts.StoreKeys = append(opts.StoreKeys, vsync.ProblemKey(m, spec, p))
		}
		fmt.Printf("checking %d algorithms under %s (%d threads × %d iterations, %d workers, %d per run)...\n",
			len(ps), m.Name(), *threads, *iters, cli.Effective(*par), cli.Effective(*workers))
		opts.Parallelism, opts.Store = *par, st
		rr := vsync.RunCtx(ctx, m, ps, opts)
		if rr.StoreHits > 0 {
			fmt.Printf("store: %d of %d algorithms served without an AMC run\n", rr.StoreHits, len(ps))
		}
		if rr.StoreErr != nil {
			fmt.Fprintln(os.Stderr, "vsynccheck: warning:", rr.StoreErr)
		}
		if rr.Failed >= 0 {
			fmt.Printf("%s: %s\n", ps[rr.Failed].Name, rr.Result)
			switch rr.Result.Verdict {
			case core.Error:
				os.Exit(2)
			case core.Undecided:
				fmt.Println(resumeHint(dir))
				os.Exit(cli.ExitUndecided)
			}
			os.Exit(1)
		}
		fmt.Println(rr.Result)
		return
	}
	if (*lockName == "") == (*wlName == "") {
		fmt.Fprintln(os.Stderr, "vsynccheck: exactly one of -lock or -workload is required (try -list)")
		os.Exit(2)
	}
	var p *vsync.Program
	var spec *vsync.BarrierSpec
	if *lockName != "" {
		alg := locks.ByName(*lockName)
		if alg == nil {
			fmt.Fprintf(os.Stderr, "vsynccheck: unknown lock %q (try -list)\n", *lockName)
			os.Exit(2)
		}
		spec = alg.DefaultSpec()
		if *scOnly {
			spec = spec.AllSC()
		}
		p = harness.MutexClient(alg, spec, *threads, *iters)
	} else {
		w := workload.ByName(*wlName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "vsynccheck: unknown workload %q (try -list)\n", *wlName)
			os.Exit(2)
		}
		lo, hi := w.Threads()
		if *threads < lo || (hi > 0 && *threads > hi) {
			if hi == 0 {
				fmt.Fprintf(os.Stderr, "vsynccheck: workload %s needs at least %d threads\n", w.Name(), lo)
			} else {
				fmt.Fprintf(os.Stderr, "vsynccheck: workload %s supports %d..%d threads\n", w.Name(), lo, hi)
			}
			os.Exit(2)
		}
		spec = w.DefaultSpec()
		if *scOnly {
			spec = spec.AllSC()
		}
		p = workload.Program(w, spec, *threads)
	}
	runStore := st
	if st != nil && *dotOut != "" {
		// A counterexample graph only exists on a real run; don't let a
		// store hit silently skip the artifact the user asked for.
		fmt.Println("note: -dot requested, bypassing the verdict store for this check")
		runStore = nil
	}
	fmt.Printf("checking %s under %s (%d threads × %d iterations, %d workers)...\n",
		p.Name, m.Name(), *threads, *iters, cli.Effective(*workers))
	opts.Parallelism, opts.Store, opts.CollectResults = 1, runStore, true
	opts.StoreKeys = append(opts.StoreKeys, vsync.ProblemKey(m, spec, p))
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
