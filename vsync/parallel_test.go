package vsync_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/vsync"
)

// TestVerifySuiteOK: the suite fan-out verifies a batch of correct
// locks and aggregates their statistics — the sum of the standalone
// runs'.
func TestVerifySuiteOK(t *testing.T) {
	var ps []*vsync.Program
	executions := 0
	for _, name := range []string{"spin", "ttas", "ticket"} {
		alg := vsync.LockByName(name)
		p := vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1)
		ps = append(ps, p)
		executions += verify(vsync.ModelWMM, p).Stats.Executions
	}
	rr := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{Parallelism: 4, WorkersPerRun: 1})
	if rr.Failed != -1 {
		t.Fatalf("suite failed at program %d: %v", rr.Failed, rr.Result)
	}
	if !rr.Result.Ok() || rr.Result.Stats.Executions != executions {
		t.Fatalf("aggregate result %v, want ok with %d executions", rr.Result, executions)
	}
}

// TestVerifySuiteFailFast: a buggy member fails the suite and is
// identified by index; its siblings are short-circuited, not misjudged.
// On one slot admission is in program order, so what ran before the
// failure keeps its verdict and what queued behind it never starts.
func TestVerifySuiteFailFast(t *testing.T) {
	good := vsync.LockByName("mcs")
	bad := vsync.LockByName("huaweimcs-buggy")
	ps := []*vsync.Program{
		vsync.MutexClient(good, good.DefaultSpec(), 2, 1),
		vsync.MutexClient(bad, bad.DefaultSpec(), 2, 1),
		vsync.MutexClient(good, good.DefaultSpec(), 3, 1),
	}
	for _, par := range []int{2, 1} {
		rr := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{Parallelism: par, WorkersPerRun: 1})
		if rr.Failed != 1 {
			t.Fatalf("par %d: failed index = %d, want 1 (%v)", par, rr.Failed, rr.Result)
		}
		if rr.Result.Verdict != vsync.SafetyViolation || rr.Results[1] != rr.Result {
			t.Fatalf("par %d: verdict = %v, want program 1's safety violation", par, rr.Result.Verdict)
		}
		if par == 1 && (rr.Results[0].Verdict != vsync.OK || rr.Results[2].Verdict != vsync.Canceled) {
			t.Fatalf("one slot: siblings %v and %v, want ok and canceled", rr.Results[0].Verdict, rr.Results[2].Verdict)
		}
	}
}

// TestFacadeOptimizer: an Optimizer built on the facade works end to
// end over a shared store session, and the report carries the engine
// accounting.
func TestFacadeOptimizer(t *testing.T) {
	alg := vsync.LockByName("ttas")
	cache, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opt := &vsync.Optimizer{Model: vsync.ModelWMM, Programs: vsync.LockSuite(alg, 2), Parallelism: 2, Cache: cache}
	res, err := opt.Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.M("ttas.poll") != vsync.Rlx {
		t.Fatalf("unexpected result:\n%s", res.Report())
	}
	rep := res.Report()
	if !strings.Contains(rep, "cache:") || !strings.Contains(rep, "worker") {
		t.Errorf("report missing engine accounting:\n%s", rep)
	}
	if cache.Len() == 0 {
		t.Error("shared store not populated")
	}
}

// TestOptimizeLockIsVsyncopt: the library's push-button door verifies
// against the same client suite as vsyncopt, so qspin at t=2 lands on
// vsyncopt -lock qspin's Table 1 row, not on the t=2-only result.
func TestOptimizeLockIsVsyncopt(t *testing.T) {
	res, err := vsync.OptimizeLock(vsync.LockByName("qspin"), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if got := fmt.Sprintf("rlx=%d acq=%d rel=%d", c.Rlx, c.Acq, c.Rel); got != "rlx=7 acq=6 rel=3" {
		t.Errorf("OptimizeLock(qspin, 2): %s, want vsyncopt -lock qspin's rlx=7 acq=6 rel=3\n%s", got, res.Report())
	}
}
