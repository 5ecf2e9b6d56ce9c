package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// runBoth runs the program under both dedup key schemes and asserts the
// explorations are identical: same verdict and the exact same work
// profile (pops, pushes, executions, revisits, duplicates, prunes). The
// hashed 128-bit keys must not change what the checker explores — only
// how cheaply it keys the visited set.
func runBoth(t *testing.T, model mm.Model, p *vprog.Program) {
	t.Helper()
	hashed := core.New(model)
	// The legacy path has no symmetry reduction; pin the hashed path to
	// raw keys too so the Stats comparison stays exact. (Symmetry-on
	// vs -off is its own differential suite, sym_diff_test.go.)
	hashed.NoSymmetry = true
	legacy := core.New(model)
	legacy.LegacyDedup = true
	hres := hashed.Run(p)
	lres := legacy.Run(p)
	if hres.Verdict != lres.Verdict {
		t.Fatalf("%s under %s: hashed verdict %v, legacy verdict %v",
			p.Name, model.Name(), hres.Verdict, lres.Verdict)
	}
	if hres.Stats != lres.Stats {
		t.Fatalf("%s under %s: exploration diverged\nhashed: %+v\nlegacy: %+v",
			p.Name, model.Name(), hres.Stats, lres.Stats)
	}
}

// TestDedupDifferentialLitmus: the hashed visited set explores the
// litmus corpus exactly as the legacy string-keyed one, at both
// strengths and under every model.
func TestDedupDifferentialLitmus(t *testing.T) {
	for _, name := range harness.LitmusNames() {
		for _, strong := range []bool{false, true} {
			p := harness.Litmus(name, strong)
			for _, m := range []mm.Model{mm.SC, mm.TSO, mm.WMM, mm.RA} {
				runBoth(t, m, p)
			}
		}
	}
}

// TestDedupDifferentialLocks: the same bar on the lock harnesses,
// including the MCS and qspinlock clients called out by the perf work
// and the buggy study cases (violation verdicts must agree too).
func TestDedupDifferentialLocks(t *testing.T) {
	for _, p := range harness.DiffLocks(testing.Short()) {
		runBoth(t, mm.WMM, p)
	}
}

// TestDedupDifferentialQueuePath covers the revisit-heavy qspinlock
// queue-path litmus, where forced-rf states stress the folded key.
func TestDedupDifferentialQueuePath(t *testing.T) {
	alg := locks.ByName("qspin")
	runBoth(t, mm.WMM, harness.QspinQueuePathLitmus(alg.DefaultSpec()))
}
