// vsyncopt runs push-button barrier optimization on a lock algorithm:
// starting from the sc-only assignment (or the algorithm's default with
// -from-default), every barrier point is relaxed as far as Await Model
// Checking allows, and the resulting Fig. 20-style mode listing is
// printed.
//
// A candidate must verify optimize.LockSuite, as in vsync.OptimizeLock:
// the -threads client, and for qspin the queue-path litmus and the
// three-thread client too.
//
// Candidates are tried one at a time, weakest first; the verification
// engine is parallel by default in that each candidate spec fans its
// client programs across -par workers, and verdicts are memoized.
// -workers N additionally lets every AMC run share its exploration
// frontier among N workers of its own through intra-run work stealing
// (0 = GOMAXPROCS), so at most -par × -workers workers run at once.
// -par 1 recovers the strictly sequential search; the resulting spec is
// identical whatever the engine settings.
//
// Usage:
//
//	vsyncopt -lock qspinlock [-model wmm] [-threads 2] [-from-default]
//	         [-store PATH] [-remote URL] [-par N] [-workers N]
//	         [-passes N]
//
// -threads is checked against the range of the lock's client (t>=1),
// as vsynccheck checks it, and -passes must be at least 1, -par and
// -workers at least 0: a count outside exits 2 with one line.
//
// Candidates go through the same problem lifecycle as vsynccheck and
// vsyncsuite (key → store → run → persist), and the store is the
// verdict cache: an in-memory session by default, or with -store PATH
// the shared persistent store at PATH:
// candidates some earlier process (a previous vsyncopt run, the
// vsyncsuite orchestrator, a concurrent invocation, CI) already judged
// cost a hash lookup instead of a model-checking run, and every
// decisive verdict this run computes is appended for the next one.
// -remote URL tiers lookups through a vsyncstored verdict service.
//
// Exit status 0 with the optimized spec, 2 on usage or checker errors
// (a verdict the store contradicts included) or an initial spec that
// does not verify, 3 when interrupted, 130 on a second signal.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/locks"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	var (
		lockName    = flag.String("lock", "", "lock algorithm to optimize")
		model       = cli.Model()
		threads     = flag.Int("threads", 2, "contending threads in the verification client")
		fromDefault = flag.Bool("from-default", false, "start from the default spec instead of all-SC")
		par         = cli.Par()
		workers     = cli.Workers()
		passes      = flag.Int("passes", 1, "full point sweeps (descent repeats until fixpoint or cap)")
		storePath   = cli.Store()
		remote      = cli.Remote()
	)
	flag.Parse()
	ctx := cli.SignalContext("vsyncopt")

	alg := locks.ByName(*lockName)
	if alg == nil {
		fmt.Fprintf(os.Stderr, "vsyncopt: unknown lock %q\n", *lockName)
		os.Exit(2)
	}
	if err := workload.CheckThreads(workload.Mutex(alg, 1), *threads); err != nil {
		fmt.Fprintln(os.Stderr, "vsyncopt:", err)
		os.Exit(2)
	}
	cli.CheckCounts("vsyncopt", cli.Min{Flag: "passes", Least: 1})
	m := cli.ParseModel("vsyncopt", *model)
	opt := &optimize.Optimizer{
		Model:         m,
		Programs:      optimize.LockSuite(alg, *threads),
		Passes:        *passes,
		Parallelism:   *par,
		WorkersPerRun: workers(),
		Cache:         store.NewMemory(),
	}
	st := cli.OpenStore("vsyncopt", *storePath, *remote)
	if st != nil {
		defer st.Close()
		opt.Cache = st
	}
	initial := alg.DefaultSpec().AllSC()
	if *fromDefault {
		initial = alg.DefaultSpec()
	}
	fmt.Printf("optimizing %s (%d barrier points)...\n\n", alg.Name, len(initial.Points()))
	res, err := opt.RunCtx(ctx, initial)
	if err != nil {
		if ctx.Err() != nil {
			// The optimizer's resume mechanism IS the verdict store:
			// every candidate decided before the interrupt was written
			// through, so a rerun with the same -store fast-forwards to
			// where the descent stopped.
			fmt.Fprintln(os.Stderr, "vsyncopt: interrupted — decided candidates are in the store; rerun with the same -store to resume")
			os.Exit(cli.ExitUndecided)
		}
		fmt.Fprintln(os.Stderr, "vsyncopt:", err)
		os.Exit(2)
	}
	fmt.Println(res.Report())
	if st != nil {
		if err := res.StoreErr; err != nil {
			// A failed write-through is silent at verdict time (the search
			// itself is unaffected), but the operator believes this run is
			// warming the store — say loudly that it may not be.
			fmt.Fprintf(os.Stderr, "vsyncopt: warning: store write-through failed, some verdicts were not persisted: %v\n", err)
		}
		s := st.Stats()
		fmt.Printf("store: %d verdicts served (%d probes), %d appended, %d total\n",
			s.Hits, s.Hits+s.Misses, s.Appended, st.Len())
		if s.RemoteHits > 0 || s.RemotePuts > 0 || s.RemoteFailures > 0 {
			fmt.Printf("remote: %d served, %d pushed, %d failures\n",
				s.RemoteHits, s.RemotePuts, s.RemoteFailures)
		}
	}
}
