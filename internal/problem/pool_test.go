package problem_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/problem"
	"repro/internal/vprog"
)

// failFastProgram trips an assertion almost immediately: a single
// thread asserting a falsehood.
func failFastProgram() *vprog.Program {
	return &vprog.Program{
		Name: "pool/fail-fast",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			t0 := func(m vprog.Mem) {
				m.Store(x, 1, vprog.Rlx)
				m.Assert(false, "deliberate failure")
			}
			return []vprog.ThreadFunc{t0}, nil
		},
	}
}

// heavyProgram explores a multi-second state space: the 3-thread
// mutex client of two MCS iterations.
func heavyProgram() *vprog.Program {
	alg := locks.ByName("mcs")
	return harness.MutexClient(alg, alg.DefaultSpec(), 3, 2)
}

// lightOKProgram verifies in milliseconds.
func lightOKProgram(alg string) *vprog.Program {
	a := locks.ByName(alg)
	return harness.MutexClient(a, a.DefaultSpec(), 2, 1)
}

// unkeyed lists progs as unkeyed problems under WMM: no store, no
// checkpoint, and no deduplication, so every problem is its own run.
func unkeyed(progs ...*vprog.Program) []problem.Problem {
	probs := make([]problem.Problem, len(progs))
	for i, p := range progs {
		probs[i] = problem.Problem{Model: mm.WMM, Prog: p, Name: p.Name}
	}
	return probs
}

// TestPoolRunsAllJobs: every problem is run, outcomes arrive in problem
// order, and the per-slot accounting adds up.
func TestPoolRunsAllJobs(t *testing.T) {
	names := []string{"spin", "ttas", "ticket", "mcs", "clh"}
	var progs []*vprog.Program
	for _, n := range names {
		progs = append(progs, lightOKProgram(n))
	}
	pool := problem.NewPool(4)
	outs := problem.Resolve(context.Background(), pool, unkeyed(progs...), problem.Knobs{}, false)
	for i, o := range outs {
		if o.Res == nil || o.Res.Verdict != core.OK {
			t.Fatalf("problem %d (%s): %v", i, names[i], o.Res)
		}
	}
	st := pool.Stats()
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	total := 0
	for _, n := range st.Jobs {
		total += n
	}
	if total != len(progs) {
		t.Errorf("per-slot run counts sum to %d, want %d", total, len(progs))
	}
	if st.TotalBusy() <= 0 {
		t.Error("expected nonzero busy time")
	}
}

// TestPoolFailFastCancels: with fail-fast on, one quick failure
// short-circuits a heavyweight sibling mid-exploration — Resolve
// returns in a fraction of the heavy run's solo runtime and the sibling
// reports Canceled.
func TestPoolFailFastCancels(t *testing.T) {
	heavy := heavyProgram()
	solo := time.Duration(0)
	if !testing.Short() {
		t0 := time.Now()
		if res := core.New(mm.WMM).Run(heavy); !res.Ok() {
			t.Fatalf("heavy program must verify solo: %v", res)
		}
		solo = time.Since(t0)
	}

	pool := problem.NewPool(2)
	t0 := time.Now()
	outs := problem.Resolve(context.Background(), pool, unkeyed(failFastProgram(), heavy), problem.Knobs{}, true)
	elapsed := time.Since(t0)

	if r := outs[0].Res; r.Verdict != core.SafetyViolation || r.Message == "" {
		t.Fatalf("fail-fast program: %v, want a safety violation with its message", r)
	}
	if outs[1].Res.Verdict != core.Canceled {
		t.Errorf("heavy sibling verdict = %v, want canceled", outs[1].Res.Verdict)
	}
	if pool.Stats().Canceled == 0 {
		t.Error("pool accounting recorded no canceled runs")
	}
	if solo > 0 && elapsed > solo/2 {
		t.Errorf("short-circuit took %v; heavy run alone takes %v", elapsed, solo)
	}
}

// TestPoolCanceledBeforeStart: problems still queued when the context
// dies never run a checker at all.
func TestPoolCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probs := unkeyed(lightOKProgram("spin"), lightOKProgram("ttas"))
	for i, o := range problem.Resolve(ctx, problem.NewPool(1), probs, problem.Knobs{}, false) {
		if o.Res.Verdict != core.Canceled || o.Res.Err != problem.ErrNotStarted {
			t.Errorf("problem %d: verdict %v (%v), want canceled before start", i, o.Res.Verdict, o.Res.Err)
		}
	}
}

// TestPoolOrderedAdmission: problems take their slots in problem order,
// so on one slot a fail-fast call always runs what precedes the failure
// and never starts what follows it — whichever goroutine the scheduler
// favours.
func TestPoolOrderedAdmission(t *testing.T) {
	ok, fail := lightOKProgram("spin"), failFastProgram()
	for rep := 0; rep < 200; rep++ {
		outs := problem.Resolve(context.Background(), problem.NewPool(1), unkeyed(ok, fail, ok), problem.Knobs{}, true)
		if outs[0].Res.Verdict != core.OK || outs[1].Res.Verdict != core.SafetyViolation || outs[2].Res.Verdict != core.Canceled {
			t.Fatalf("repetition %d: verdicts %v, %v, %v — want ok, safety violation, canceled",
				rep, outs[0].Res.Verdict, outs[1].Res.Verdict, outs[2].Res.Verdict)
		}
	}
}

// TestPoolRunsOwnWorkers: a pool bounds whole runs and nothing else —
// every run staffs its own WorkersPerRun, whatever the pool's width.
// Two three-thread clients at two workers each on a two-slot pool both
// get both of their seats, and the pool counts the two runs. Whether a
// second worker executes anything is the scheduler's business: a
// 229-state frontier can drain before it is first scheduled.
func TestPoolRunsOwnWorkers(t *testing.T) {
	alg := locks.ByName("mcs")
	p := harness.MutexClient(alg, alg.DefaultSpec(), 3, 1)
	pool := problem.NewPool(2)
	for i, o := range problem.Resolve(context.Background(), pool, unkeyed(p, p), problem.Knobs{WorkersPerRun: 2}, false) {
		if r := o.Res; r.Verdict != core.OK || r.Sched.Workers != 2 || len(r.Sched.Executed) != 2 {
			t.Errorf("run %d: %v, %d seats (executed %v), want OK on 2 seats of its own",
				i, r.Verdict, r.Sched.Workers, r.Sched.Executed)
		}
	}
	st := pool.Stats()
	if n := st.Jobs[0] + st.Jobs[1]; n != 2 {
		t.Errorf("pool counted %d runs, want 2", n)
	}
}
