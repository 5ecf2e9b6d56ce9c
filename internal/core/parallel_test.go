package core_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
)

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
	seq := run(t, mm.WMM, p, 1, false)
	par := run(t, mm.WMM, p, 4, false)
	// Executions is the schedule-independent canary; Blocked, like
	// Popped, depends on the schedule and may drift a few counts between
	// worker counts (see the core.Stats doc).
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
