package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
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
// qspinlock client (~18k popped states even with symmetry reduction
// collapsing its thread orbits).
func heavyProgram() *vprog.Program {
	// Two MCS iterations: the retry-free collapse shrank the former
	// one-iteration qspin t3 run to milliseconds, too quick to outlive a
	// cancellation (and two qspin iterations overrun the graph cap).
	alg := locks.ByName("mcs")
	return harness.MutexClient(alg, alg.DefaultSpec(), 3, 2)
}

// lightOKProgram verifies in milliseconds.
func lightOKProgram(alg string) *vprog.Program {
	a := locks.ByName(alg)
	return harness.MutexClient(a, a.DefaultSpec(), 2, 1)
}

// TestPoolRunsAllJobs: every job completes, results arrive in job
// order, and the per-worker accounting adds up.
func TestPoolRunsAllJobs(t *testing.T) {
	names := []string{"spin", "ttas", "ticket", "mcs", "clh"}
	pool := core.NewPool(4)
	jobs := make([]core.Job, len(names))
	for i, n := range names {
		jobs[i] = core.Job{Checker: core.New(mm.WMM), Program: lightOKProgram(n)}
	}
	results := pool.RunAll(context.Background(), jobs, false)
	for i, r := range results {
		if r == nil || r.Verdict != core.OK {
			t.Fatalf("job %d (%s): %v", i, names[i], r)
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
	if total != len(jobs) {
		t.Errorf("per-worker job counts sum to %d, want %d", total, len(jobs))
	}
	if st.TotalBusy() <= 0 {
		t.Error("expected nonzero busy time")
	}
}

// TestPoolFailFastCancels: with fail-fast on, one quick failure
// short-circuits a heavyweight sibling mid-exploration — the pool
// returns in a fraction of the heavy job's solo runtime and the sibling
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

	pool := core.NewPool(2)
	jobs := []core.Job{
		{Checker: core.New(mm.WMM), Program: failFastProgram()},
		{Checker: core.New(mm.WMM), Program: heavy},
	}
	t0 := time.Now()
	results := pool.RunAll(context.Background(), jobs, true)
	elapsed := time.Since(t0)

	if results[0].Verdict != core.SafetyViolation || results[0].Message == "" {
		t.Fatalf("fail-fast program: %v, want a safety violation with its message", results[0])
	}
	if results[1].Verdict != core.Canceled {
		t.Errorf("heavy sibling verdict = %v, want canceled", results[1].Verdict)
	}
	if pool.Stats().Canceled == 0 {
		t.Error("pool accounting recorded no canceled runs")
	}
	if solo > 0 && elapsed > solo/2 {
		t.Errorf("short-circuit took %v; heavy job alone takes %v", elapsed, solo)
	}
}

// TestRunCtxCanceled: a canceled context stops an exploration at the
// next check point with a Canceled verdict, not a wrong answer.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	res := core.New(mm.WMM).RunCtx(ctx, heavyProgram())
	if res.Verdict != core.Canceled {
		t.Fatalf("verdict = %v, want canceled", res.Verdict)
	}
	if res.Err == nil {
		t.Error("canceled result should carry the context error")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("pre-canceled run still took %v", d)
	}
}

// TestPoolCanceledBeforeStart: jobs still queued when the context dies
// never run a checker at all.
func TestPoolCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := core.NewPool(1)
	jobs := []core.Job{
		{Checker: core.New(mm.WMM), Program: lightOKProgram("spin")},
		{Checker: core.New(mm.WMM), Program: lightOKProgram("ttas")},
	}
	results := pool.RunAll(ctx, jobs, false)
	for i, r := range results {
		if r.Verdict != core.Canceled {
			t.Errorf("job %d: verdict %v, want canceled", i, r.Verdict)
		}
	}
}

// TestPoolOrderedAdmission: jobs take their slots in index order, so on
// one slot a fail-fast batch always runs what precedes the failure and
// never starts what follows it — whichever goroutine the scheduler
// favours.
func TestPoolOrderedAdmission(t *testing.T) {
	ok, fail := lightOKProgram("spin"), failFastProgram()
	for rep := 0; rep < 200; rep++ {
		jobs := []core.Job{
			{Checker: core.New(mm.WMM), Program: ok},
			{Checker: core.New(mm.WMM), Program: fail},
			{Checker: core.New(mm.WMM), Program: ok},
		}
		res := core.NewPool(1).RunAll(context.Background(), jobs, true)
		if res[0].Verdict != core.OK || res[1].Verdict != core.SafetyViolation || res[2].Verdict != core.Canceled {
			t.Fatalf("repetition %d: verdicts %v, %v, %v — want ok, safety violation, canceled",
				rep, res[0].Verdict, res[1].Verdict, res[2].Verdict)
		}
	}
}

// TestPoolRunsOwnWorkers: a pool bounds whole runs and nothing else —
// every job staffs its own WorkersPerRun, whatever the pool's width. Two
// three-thread clients at two workers each on a two-slot pool both get
// both of their seats, and the pool counts the two jobs. Whether a
// second worker executes anything is the scheduler's business: a
// 229-state frontier can drain before it is first scheduled.
func TestPoolRunsOwnWorkers(t *testing.T) {
	alg := locks.ByName("mcs")
	p := harness.MutexClient(alg, alg.DefaultSpec(), 3, 1)
	var jobs []core.Job
	for range 2 {
		c := core.New(mm.WMM)
		c.WorkersPerRun = 2
		jobs = append(jobs, core.Job{Checker: c, Program: p})
	}
	pool := core.NewPool(2)
	for i, r := range pool.RunAll(context.Background(), jobs, false) {
		if r.Verdict != core.OK || r.Sched.Workers != 2 || len(r.Sched.Executed) != 2 {
			t.Errorf("job %d: %v, %d seats (executed %v), want OK on 2 seats of its own",
				i, r.Verdict, r.Sched.Workers, r.Sched.Executed)
		}
	}
	st := pool.Stats()
	if n := st.Jobs[0] + st.Jobs[1]; n != 2 {
		t.Errorf("pool counted %d jobs, want 2", n)
	}
}
