package locks_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/workload"
)

// TestDPDKMCSBug reproduces §3.1: the shipped DPDK v20.05 MCS lock
// publishes prev->next with a relaxed store, so the releaser's hand-off
// can be modification-ordered before the waiter's own initialization —
// the waiter (Alice) hangs forever. AMC reports the await-termination
// violation of Fig. 14; the same code verifies under SC and TSO (the
// bug needs a weak model), and the Fig. 15 fix verifies everywhere.
// The client is the two-thread, one-section mutex client: the shape
// under which Alice enqueues while Bob releases.
func TestDPDKMCSBug(t *testing.T) {
	buggy := locks.ByName("dpdkmcs-buggy")
	fixed := locks.ByName("dpdkmcs")
	if buggy == nil || fixed == nil {
		t.Fatal("dpdk algorithms not registered")
	}

	res := core.New(mm.WMM).Run(harness.MutexClient(buggy, buggy.DefaultSpec(), 2, 1))
	if res.Verdict != core.ATViolation {
		t.Fatalf("buggy DPDK lock on WMM: want AT violation, got %v", res)
	}
	if res.Witness == nil || !strings.Contains(res.Witness.Render(), "rf: ⊥") {
		t.Error("AT witness should show the missing rf-edge")
	}

	for _, model := range []mm.Model{mm.SC, mm.TSO} {
		if res := core.New(model).Run(harness.MutexClient(buggy, buggy.DefaultSpec(), 2, 1)); !res.Ok() {
			t.Errorf("buggy DPDK lock must verify under %s (bug needs weak memory), got %v", model.Name(), res)
		}
	}
	for _, model := range mm.All() {
		if res := core.New(model).Run(harness.MutexClient(fixed, fixed.DefaultSpec(), 2, 1)); !res.Ok() {
			t.Errorf("fixed DPDK lock must verify under %s, got %v", model.Name(), res)
		}
	}
}

// TestHuaweiMCSBug reproduces §3.2: the missing acquire barrier after
// the spin loop lets the new holder's critical section read stale data
// even though the hand-off was observed — an increment is lost
// (Fig. 19). The fix (acquire fence at line 20) verifies.
func TestHuaweiMCSBug(t *testing.T) {
	buggy := locks.ByName("huaweimcs-buggy")
	fixed := locks.ByName("huaweimcs")
	if buggy == nil || fixed == nil {
		t.Fatal("huawei algorithms not registered")
	}

	res := core.New(mm.WMM).Run(harness.MutexClient(buggy, buggy.DefaultSpec(), 2, 1))
	if res.Verdict != core.SafetyViolation {
		t.Fatalf("buggy Huawei lock on WMM: want safety violation (lost update), got %v", res)
	}
	if !strings.Contains(res.Message, "lost update") {
		t.Errorf("violation should be the lost update, got %q", res.Message)
	}

	// On SC the bug cannot manifest.
	if res := core.New(mm.SC).Run(harness.MutexClient(buggy, buggy.DefaultSpec(), 2, 1)); !res.Ok() {
		t.Errorf("buggy Huawei lock must verify under SC, got %v", res)
	}
	for _, model := range mm.All() {
		if res := core.New(model).Run(harness.MutexClient(fixed, fixed.DefaultSpec(), 2, 1)); !res.Ok() {
			t.Errorf("fixed Huawei lock must verify under %s, got %v", model.Name(), res)
		}
	}
}

// TestRWClient verifies the reader-writer lock against torn reads with
// a concurrent writer and reader.
func TestRWClient(t *testing.T) {
	alg := locks.ByName("rw")
	p := harness.RWClient(alg, alg.DefaultSpec(), 1, 1, 1)
	if res := core.New(mm.WMM).Run(p); !res.Ok() {
		t.Fatalf("rw lock failed reader/writer verification: %v\n%s", res, witness(res))
	}
	// Two writers and a reader exercise the writer hand-off as well.
	p = harness.RWClient(alg, alg.DefaultSpec(), 2, 1, 1)
	if res := core.New(mm.WMM).Run(p); !res.Ok() {
		t.Fatalf("rw lock failed 2w1r verification: %v\n%s", res, witness(res))
	}
}

// TestRecursiveClient verifies re-entrant acquisition of the recursive
// CAS lock (a plain CAS lock would deadlock this client).
func TestRecursiveClient(t *testing.T) {
	alg := locks.ByName("recspin")
	p := workload.Program(workload.Recursive(alg), alg.DefaultSpec(), 2)
	if res := core.New(mm.WMM).Run(p); !res.Ok() {
		t.Fatalf("recursive lock failed re-entrant verification: %v\n%s", res, witness(res))
	}
}

// TestTwoIterationClients re-verifies the core queue locks with two
// critical sections per thread, exercising node recycling (CLH node
// adoption, array slot wrap-around).
func TestTwoIterationClients(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-iteration verification is slow")
	}
	for _, name := range []string{"spin", "ttas", "ticket", "mcs", "clh", "array", "mutex", "semaphore"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			alg := locks.ByName(name)
			p := harness.MutexClient(alg, alg.DefaultSpec(), 2, 2)
			res := core.New(mm.WMM).Run(p)
			if !res.Ok() {
				t.Fatalf("%s with 2 iterations: %v\n%s", name, res, witness(res))
			}
			t.Logf("%s: %v", name, res)
		})
	}
}

// TestThreeThreadClients verifies the queue path of the queue locks
// (three contenders force an MCS/qspinlock queue with a real
// predecessor chain).
func TestThreeThreadClients(t *testing.T) {
	if testing.Short() {
		t.Skip("three-thread verification is slow")
	}
	// twa is omitted: its waiting-array path makes three-thread
	// exploration very large (it is still verified with two threads and
	// two iterations above).
	for _, name := range []string{"mcs", "qspin", "ticket", "clh", "spin", "array"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			alg := locks.ByName(name)
			p := harness.MutexClient(alg, alg.DefaultSpec(), 3, 1)
			res := core.New(mm.WMM).Run(p)
			if !res.Ok() {
				t.Fatalf("%s with 3 threads: %v\n%s", name, res, witness(res))
			}
			t.Logf("%s: %v", name, res)
		})
	}
}
