package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// The parallel differential bar: a work-graph exploration at any worker
// count must be observably identical to the sequential DFS — the same
// verdict, the same enumeration (sameEnumeration below) and — for
// violations — the same deterministic counterexample. The traversal
// counters (Popped, Revisits, ...) are deliberately NOT compared across
// worker counts: equal-fingerprint states carry different stamp
// histories, the revisit restriction depends on stamp order, and which
// representative a parallel schedule expands is timing dependent (see
// the core.Stats doc).

func runAt(t *testing.T, model mm.Model, p *vprog.Program, workers int) *core.Result {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	res := c.Run(p)
	if res.Verdict == core.Canceled {
		t.Fatalf("%s at %d workers: unexpected cancellation", p.Name, workers)
	}
	return res
}

// sameEnumeration is the one comparison of two complete runs of one
// problem across worker counts or segmentations. Executions must always
// agree: AMC's exactly-once guarantee, arbitrated by the visited set's
// atomic insert-if-absent. Blocked must agree only when neither run
// canonicalized on several workers — there it is a traversal counter
// (see the core.Stats doc), and comparing it would be a flaky test.
func sameEnumeration(a, b *core.Result) bool {
	if a.Stats.Executions != b.Stats.Executions {
		return false
	}
	return blockedDrifts(a) || blockedDrifts(b) || a.Stats.Blocked == b.Stats.Blocked
}

// blockedDrifts reports whether r ran with symmetry reduction in effect
// on more than one worker.
func blockedDrifts(r *core.Result) bool {
	return r.Sched.Workers > 1 && r.Stats.CanonFast+r.Stats.CanonRefined > 0
}

// witnessKey fingerprints a counterexample graph (nil-safe).
func witnessKey(r *core.Result) [2]uint64 {
	if r.Witness == nil {
		return [2]uint64{}
	}
	return r.Witness.Fingerprint128()
}

// diffOne asserts the differential bar for one program under one model.
func diffOne(t *testing.T, model mm.Model, p *vprog.Program) {
	t.Helper()
	seq := runAt(t, model, p, 1)
	par2 := runAt(t, model, p, 2)
	par4 := runAt(t, model, p, 4)

	if par2.Verdict != par4.Verdict {
		t.Fatalf("%s under %s: 2 workers say %v, 4 workers say %v",
			p.Name, model.Name(), par2.Verdict, par4.Verdict)
	}
	if seq.Verdict != par4.Verdict {
		t.Fatalf("%s under %s: sequential says %v, parallel says %v",
			p.Name, model.Name(), seq.Verdict, par4.Verdict)
	}
	if !sameEnumeration(par2, par4) {
		t.Fatalf("%s under %s: execution enumeration diverged across worker counts\npar2: %+v\npar4: %+v",
			p.Name, model.Name(), par2.Stats, par4.Stats)
	}
	if seq.Verdict == core.OK {
		// Complete exploration everywhere: the enumeration must match the
		// sequential run.
		if !sameEnumeration(seq, par4) {
			t.Fatalf("%s under %s: exploration diverged\nseq:  %+v\npar4: %+v",
				p.Name, model.Name(), seq.Stats, par4.Stats)
		}
		return
	}
	// Violations: sequential stops at its first counterexample, so its
	// work profile is not comparable — but the parallel runs explore to
	// completion and must agree on the deterministic counterexample.
	if witnessKey(par2) != witnessKey(par4) {
		t.Fatalf("%s under %s: parallel counterexample is schedule-dependent", p.Name, model.Name())
	}
	if par2.Message != par4.Message {
		t.Fatalf("%s under %s: parallel messages diverged: %q vs %q",
			p.Name, model.Name(), par2.Message, par4.Message)
	}
}

// TestParallelDifferentialLitmus: the full litmus corpus, both
// strengths, under every correctness model.
func TestParallelDifferentialLitmus(t *testing.T) {
	for _, name := range harness.LitmusNames() {
		for _, strong := range []bool{false, true} {
			p := harness.Litmus(name, strong)
			for _, m := range []mm.Model{mm.SC, mm.TSO, mm.WMM} {
				diffOne(t, m, p)
			}
		}
	}
}

// TestParallelDifferentialLocks: the lock harnesses, including the
// buggy study cases whose violations exercise the deterministic
// counterexample merge.
func TestParallelDifferentialLocks(t *testing.T) {
	for _, p := range harness.DiffLocks(testing.Short()) {
		diffOne(t, mm.WMM, p)
	}
}

// TestParallelDifferentialQueuePath: the revisit-heavy qspinlock
// queue-path litmus, where forced-rf states stress both the dedup key
// and the work distribution.
func TestParallelDifferentialQueuePath(t *testing.T) {
	alg := locks.ByName("qspin")
	diffOne(t, mm.WMM, harness.QspinQueuePathLitmus(alg.DefaultSpec()))
}

// TestParallelStealingHappens: on a run big enough to keep several
// workers fed (the 3-thread two-iteration MCS client — the retry-free
// collapse shrank the one-iteration run to a few hundred states, too
// small to spread), the scheduler counters must show genuine
// multi-worker execution — active workers and successful steals —
// while the execution enumeration stays identical to sequential.
func TestParallelStealingHappens(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exploration; not run in -short")
	}
	alg := locks.ByName("mcs")
	p := harness.MutexClient(alg, alg.DefaultSpec(), 3, 2)
	seq := runAt(t, mm.WMM, p, 1)
	par := runAt(t, mm.WMM, p, 4)
	// Executions is the schedule-independent canary; with symmetry on,
	// Blocked, like Popped, depends on which orbit representative a
	// worker reaches first and may drift a few counts between worker
	// counts (294–296 on the 2-worker qspin t=3 client).
	if !par.Ok() || !sameEnumeration(seq, par) {
		t.Fatalf("parallel mcs-t3 diverged:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
	}
	if par.Sched.Active < 2 {
		t.Errorf("only %d active workers; work never spread", par.Sched.Active)
	}
	if par.Sched.Steals == 0 {
		t.Error("no steals recorded on a 270k-state run")
	}
	total := 0
	for _, n := range par.Sched.Executed {
		total += n
	}
	if total != par.Stats.Popped {
		t.Errorf("per-worker executed items sum to %d, want Popped=%d", total, par.Stats.Popped)
	}
}
