package vsync_test

import (
	"strings"
	"testing"

	"repro/vsync"
)

// TestVerifySuiteOK: the suite fan-out verifies a batch of correct
// locks and aggregates their statistics — the sum of the standalone
// runs' — keeping no per-program results unless asked to.
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
	if rr.Results != nil {
		t.Error("Run without CollectResults retained Results")
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
		rr := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{Parallelism: par, WorkersPerRun: 1, CollectResults: true})
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

// TestFacadeOptimizeOptions: the options path works end to end and the
// report carries the engine accounting.
func TestFacadeOptimizeOptions(t *testing.T) {
	alg := vsync.LockByName("ttas")
	cache := vsync.NewOptCache()
	res, err := vsync.Optimize(vsync.ModelWMM, func(spec *vsync.BarrierSpec) []*vsync.Program {
		return []*vsync.Program{vsync.MutexClient(alg, spec, 2, 1)}
	}, alg.DefaultSpec().AllSC(), vsync.OptimizeOptions{
		Parallelism: 2, Speculate: true, Cache: cache,
	})
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
		t.Error("shared cache not populated")
	}
}
