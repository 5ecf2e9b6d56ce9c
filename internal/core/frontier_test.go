package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The frontier is one queue with one order: these tests hold it to that
// at lengths the corpus does not reach on its own.

// TestResumeDeepFrontierRoundTrip: a frontier of 100,000 states, told
// apart by the initial value of their graphs' one location, goes through
// buildCheckpoint, the file format and seedResume, and comes back off
// the resumed worker in exactly the order the original would have popped
// it.
func TestResumeDeepFrontierRoundTrip(t *testing.T) {
	const n = 100000
	prog := &vprog.Program{Name: "lone", Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
		env.Var("x", 0)
		return []vprog.ThreadFunc{func(vprog.Mem) {}}, nil
	}}
	lone := func() (*exploration, *explorer) {
		c := New(mm.WMM)
		x := &exploration{c: c, prog: prog, single: true}
		w := &explorer{x: x, c: c, threads: make([]vprog.ThreadFunc, 1), vars: &vprog.VarSet{}}
		w.vars.Var("x", 0)
		x.workers = []*explorer{w}
		return x, w
	}
	src, sw := lone()
	for i := 0; i < n; i++ {
		sw.dq.pushTail(ExploreState{g: graph.New(1, []graph.Val{graph.Val(i)}, []string{"x"})})
	}
	ck, err := DecodeCheckpoint(src.buildCheckpoint().Encode())
	if err != nil {
		t.Fatal(err)
	}
	dst, dw := lone()
	if res := dst.seedResume(ck); res != nil {
		t.Fatal(res.Err)
	}
	if got := dst.inflight.Load(); got != n || dw.dq.peak != n {
		t.Fatalf("resume seeded %d states in flight and a deque that peaked at %d, want %d", got, dw.dq.peak, n)
	}
	for i := 0; i < n; i++ {
		want, _, _ := src.tryNext(sw)
		got, ok, _ := dst.tryNext(dw)
		if !ok || got.g.InitVals[0] != want.g.InitVals[0] {
			t.Fatalf("pop %d of the resumed run is state %v (ok %v), the interrupted run's is %v", i+1, got.g.InitVals, ok, want.g.InitVals)
		}
	}
	if _, ok, _ := dst.tryNext(dw); ok {
		t.Fatal("the resumed frontier holds more than was checkpointed")
	}
}

// treiber runs one sequential segment of structs/treiber at the given
// thread count, to the end or to budget pops.
func treiber(t *testing.T, threads int, resume *Checkpoint, budget int64) *Result {
	t.Helper()
	c := New(mm.WMM)
	c.Budget = Budget{MaxGraphs: budget}
	c.Resume = resume
	res := c.Run(workload.Program(workload.ByName("structs/treiber"), nil, threads))
	if res.Verdict == Error {
		t.Fatal(res.Err)
	}
	return res
}

// TestFrontierPeakTreiberT3 pins the benchmark's cell at one worker:
// what it explores, the most states it ever had queued, and how many
// distinct thread rows its replays cover.
func TestFrontierPeakTreiberT3(t *testing.T) {
	if testing.Short() {
		t.Skip("treiber t=3; not run in -short")
	}
	res := treiber(t, 3, nil, 0)
	if s := res.Stats; !res.Ok() || s.Executions != 750 || s.Popped != 30831 || s.Pushed != 30830 {
		t.Fatalf("%v: %d executions, %d popped, %d pushed; pinned ok, 750, 30831, 30830", res.Verdict, s.Executions, s.Popped, s.Pushed)
	}
	if got := res.Sched.FrontierPeak; got != 396 {
		t.Errorf("frontier peaked at %d states, pinned 396", got)
	}
	if sc := res.Sched; sc.MemoRows != 2985 || sc.MemoReplays != 34629 {
		t.Errorf("replay memo: %d rows for %d replays, pinned 2985 and 34629", sc.MemoRows, sc.MemoReplays)
	}
}

// TestResumeExactDeepFrontier: treiber t=4 to 400,000 pops in one
// segment, and again as 300,000 + 100,000 through a checkpoint file image
// that holds thousands of states. A resumed sequential run continues the
// interrupted one's pop sequence, so every counter and every state still
// queued at the end must agree.
func TestResumeExactDeepFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("treiber t=4, 800,000 pops (~6 s); not run in -short")
	}
	// Only what is compared outlives a run: a checkpoint pins its frontier.
	ending := func(res *Result) (Stats, []graph.Hash128) {
		if res.Verdict != Undecided || res.Checkpoint == nil {
			t.Fatalf("segment ended %v, want a budget stop with a checkpoint", res)
		}
		keys := make([]graph.Hash128, 0, res.Checkpoint.FrontierLen())
		for _, st := range res.Checkpoint.frontier {
			keys = append(keys, st.key())
		}
		return res.Stats, keys
	}
	oneStats, oneKeys := ending(treiber(t, 4, nil, 400000))

	first := treiber(t, 4, nil, 300000)
	if n := first.Checkpoint.FrontierLen(); n == 0 || first.Sched.FrontierPeak < n {
		t.Fatalf("first segment ends with %d states queued (peak %d): want a frontier, and a peak no smaller", n, first.Sched.FrontierPeak)
	}
	ck, err := DecodeCheckpoint(first.Checkpoint.Encode())
	if err != nil {
		t.Fatal(err)
	}
	first = nil
	twoStats, twoKeys := ending(treiber(t, 4, ck, 100000))

	if oneStats != twoStats {
		t.Errorf("stats diverged across the resume\none segment:  %+v\ntwo segments: %+v", oneStats, twoStats)
	}
	if !slices.Equal(oneKeys, twoKeys) {
		t.Errorf("the frontiers differ across the resume: %d states after one segment, %d after two", len(oneKeys), len(twoKeys))
	}
	s := oneStats
	if s.Popped != 400000 || s.Executions != 12946 || s.Duplicates != 41834 || s.Revisits != 68772 || len(oneKeys) != 12053 {
		t.Errorf("at 400k pops: %d popped, %d executions, %d duplicates, %d revisits, %d queued; pinned 400000, 12946, 41834, 68772, 12053",
			s.Popped, s.Executions, s.Duplicates, s.Revisits, len(oneKeys))
	}
}
