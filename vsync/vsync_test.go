package vsync_test

import (
	"strings"
	"testing"

	"repro/vsync"
)

func TestFacadeVerify(t *testing.T) {
	alg := vsync.LockByName("ttas")
	if alg == nil {
		t.Fatal("registry lookup failed")
	}
	res := vsync.VerifyLock(alg, alg.DefaultSpec(), 2, 1)
	if !res.Ok() {
		t.Fatalf("ttas: %v", res)
	}
	if got := verify(vsync.ModelSC, vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1)); !got.Ok() {
		t.Fatalf("ttas under SC: %v", got)
	}
}

func TestFacadeOptimize(t *testing.T) {
	alg := vsync.LockByName("spin")
	res, err := vsync.OptimizeLock(alg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.M("spin.cas") != vsync.Acq || res.Final.M("spin.unlock") != vsync.Rel {
		t.Fatalf("unexpected optimization result:\n%s", res.Report())
	}
	if !strings.Contains(res.Report(), "verifications") {
		t.Error("report missing stats line")
	}
}

func TestFacadeLocks(t *testing.T) {
	all := vsync.Locks()
	if len(all) < 20 { // 18 benchmarkable + buggy study cases
		t.Fatalf("registry too small: %d", len(all))
	}
	buggy := 0
	for _, a := range all {
		if a.Buggy {
			buggy++
		}
	}
	if buggy != 2 {
		t.Fatalf("want 2 buggy study-case variants, got %d", buggy)
	}
}

func TestFacadeMachines(t *testing.T) {
	ms := vsync.Machines()
	if len(ms) != 2 || ms[0].Name != "ARMv8" || ms[1].Name != "x86_64" {
		t.Fatalf("unexpected machines: %v", ms)
	}
	if ms[0].Cores != 128 || ms[1].Cores != 96 {
		t.Fatal("platform core counts diverge from the paper's testbeds")
	}
}

func TestFacadeBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke test")
	}
	cfg := vsync.QuickBench()
	cfg.Threads = []int{1, 2}
	cfg.Runs = 2
	cfg.Cycles = 30_000
	cfg.Algorithms = cfg.Algorithms[:3]
	recs := vsync.RunBench(cfg)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
}
