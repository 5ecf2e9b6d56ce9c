// vsyncopt runs push-button barrier optimization on a lock algorithm:
// starting from the sc-only assignment (or the algorithm's default with
// -from-default), every barrier point is relaxed as far as Await Model
// Checking allows, and the resulting Fig. 20-style mode listing is
// printed.
//
// The verification engine is parallel by default: candidate specs fan
// their client programs across -par workers, each point's candidate
// ladder is raced speculatively, and verdicts are memoized. -workers N
// additionally lets every AMC run share its exploration frontier with
// idle pool slots through intra-run work stealing — one scheduler for
// whole runs and stolen items. -par 1 -no-speculate -no-cache recovers
// the strictly sequential search; the resulting spec is identical
// whatever the engine settings.
//
// Usage:
//
//	vsyncopt -lock qspinlock [-model wmm] [-threads 2] [-from-default]
//	         [-store PATH] [-remote URL] [-par N] [-workers N]
//	         [-passes N] [-no-speculate] [-no-cache]
//
// -store PATH backs the verdict cache with the shared persistent store
// at PATH: candidates some earlier process (a previous vsyncopt run,
// the vsyncsuite orchestrator, a concurrent invocation, CI) already
// judged cost a hash lookup instead of a model-checking run, and every
// decisive verdict this run computes is appended for the next one.
// -remote URL tiers lookups through a vsyncstored verdict service.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/vprog"
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
		noSpeculate = flag.Bool("no-speculate", false, "disable the speculative candidate ladder")
		noCache     = flag.Bool("no-cache", false, "disable verdict memoization")
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
	m := cli.ParseModel("vsyncopt", *model)
	opt := &optimize.Optimizer{
		Model: m,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			ps := []*vprog.Program{harness.MutexClient(alg, spec, *threads, 1)}
			if alg.Name == "qspin" {
				// Cover the MCS queue paths (see §3.3 and the Fig. 1
				// extraction methodology).
				ps = append(ps, harness.QspinQueuePathLitmus(spec),
					harness.MutexClient(alg, spec, 3, 1))
			}
			return ps
		},
		Passes:        *passes,
		Parallelism:   *par,
		WorkersPerRun: *workers,
		Speculate:     !*noSpeculate,
	}
	st := cli.OpenStore("vsyncopt", *storePath, *remote)
	if st != nil {
		defer st.Close()
		opt.Cache = optimize.NewCacheWithStore(st)
	} else if !*noCache {
		opt.Cache = optimize.NewCache()
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
		if err := opt.Cache.StoreErr(); err != nil && !errors.Is(err, store.ErrConflict) {
			// A failed write-through is silent at verdict time (the search
			// itself is unaffected), but the operator believes this run is
			// warming the store — say loudly that it may not be. Conflicts
			// are not a persistence problem and get their own exit-2
			// treatment below.
			fmt.Fprintf(os.Stderr, "vsyncopt: warning: store write-through failed, some verdicts were not persisted: %v\n", err)
		}
		s := st.Stats()
		fmt.Printf("store: %d verdicts served (%d probes), %d appended, %d total\n",
			s.Hits, s.Hits+s.Misses, s.Appended, st.Len())
		if s.RemoteHits > 0 || s.RemotePuts > 0 || s.RemoteFailures > 0 {
			fmt.Printf("remote: %d served, %d pushed, %d failures\n",
				s.RemoteHits, s.RemotePuts, s.RemoteFailures)
		}
		if s.Conflicts > 0 {
			// The cache's write-through is best-effort, but a conflict is
			// never routine: it means two runs judged one key differently,
			// i.e. the fingerprint keying (or the checker) broke.
			fmt.Fprintf(os.Stderr, "vsyncopt: warning: %d verdict conflicts — the store and this run disagree on already-stored problems; distrust the store file\n", s.Conflicts)
			os.Exit(2)
		}
	}
}
