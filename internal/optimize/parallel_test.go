package optimize_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/vprog"
)

// suite builds the client programs used by the engine-equivalence
// tests: the 2-thread mutex client, plus the queue-path litmus for
// qspinlock so the suite has more than one program to fan out.
func suite(alg *locks.Algorithm) func(*vprog.BarrierSpec) []*vprog.Program {
	return func(spec *vprog.BarrierSpec) []*vprog.Program {
		ps := []*vprog.Program{harness.MutexClient(alg, spec, 2, 1)}
		if alg.Name == "qspin" {
			ps = append(ps, harness.QspinQueuePathLitmus(spec))
		}
		return ps
	}
}

// TestParallelDeterminism is the engine's core contract: the parallel
// engine (a candidate's programs fanned across workers, memoization)
// must land on a final spec byte-identical to the sequential greedy
// descent, with identical mode counts — across a plain MCS lock, a
// cohort (composite) lock, and the Linux qspinlock.
func TestParallelDeterminism(t *testing.T) {
	names := []string{"mcs", "ctwamcs", "qspin"}
	if testing.Short() {
		// Keep the contract exercised in the -short/-race CI lanes but
		// only on the cheapest workload; the full sweep runs in `make
		// test`.
		names = names[:1]
	}
	for _, name := range names {
		alg := locks.ByName(name)
		initial := alg.DefaultSpec().AllSC()

		seq := &optimize.Optimizer{Model: mm.WMM, Programs: suite(alg), Parallelism: 1}
		seqRes, err := seq.Run(initial)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}

		par := &optimize.Optimizer{
			Model: mm.WMM, Programs: suite(alg),
			Parallelism: 4, Cache: optimize.NewCache(),
		}
		parRes, err := par.Run(initial)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}

		if got, want := parRes.Final.Fingerprint(), seqRes.Final.Fingerprint(); got != want {
			t.Errorf("%s: parallel final spec diverges from sequential\nsequential: %s\nparallel:   %s",
				name, want, got)
		}
		if got, want := parRes.Counts(), seqRes.Counts(); got != want {
			t.Errorf("%s: mode counts diverge: parallel %+v, sequential %+v", name, got, want)
		}
		if parRes.Pool.Workers != 4 {
			t.Errorf("%s: parallel run reports %d workers, want 4", name, parRes.Pool.Workers)
		}
	}
}

// TestCacheHitCounts: a multi-pass descent revisits assignments the
// first pass already judged; the cache must catch them and the run must
// report the hits. The session's own probes are the run's lookups plus
// one per AMC run: the re-check on the run's slot, right before it
// starts, which always misses in a sequential descent.
func TestCacheHitCounts(t *testing.T) {
	alg := locks.ByName("ttas")
	cache := optimize.NewCache()
	opt := &optimize.Optimizer{
		Model: mm.WMM, Programs: suite(alg),
		Parallelism: 1, Passes: 3, Cache: cache,
	}
	res, err := opt.Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Errorf("multi-pass run recorded no cache hits (lookups=%d)", res.CacheLookups)
	}
	if res.CacheLookups != res.Verifications {
		t.Errorf("CacheLookups=%d, want one per verification of the one-program suite (%d)", res.CacheLookups, res.Verifications)
	}
	st := cache.Stats()
	if st.Hits != res.CacheHits {
		t.Errorf("Result.CacheHits=%d but the session served %d", res.CacheHits, st.Hits)
	}
	if runs := res.CacheLookups - res.CacheHits; st.Misses != 2*runs {
		t.Errorf("session counted %d misses, want %d: a probe and a slot re-check per each of %d runs", st.Misses, 2*runs, runs)
	}
	if cache.Len() == 0 || cache.Len() != st.Appended {
		t.Errorf("cache holds %d verdicts, appended %d", cache.Len(), st.Appended)
	}
}

// TestCacheAvoidsReverification: with a shared cache, re-running the
// same optimization is pure lookup — zero additional AMC runs, same
// result.
func TestCacheAvoidsReverification(t *testing.T) {
	alg := locks.ByName("ttas")
	cache := optimize.NewCache()
	mk := func() *optimize.Optimizer {
		return &optimize.Optimizer{Model: mm.WMM, Programs: suite(alg), Parallelism: 1, Cache: cache}
	}
	first, err := mk().Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	second, err := mk().Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.CacheLookups {
		t.Errorf("second run should be all hits: %d hits / %d lookups",
			second.CacheHits, second.CacheLookups)
	}
	if second.Final.Fingerprint() != first.Final.Fingerprint() {
		t.Error("cached re-run diverged from the original result")
	}
}

// TestOptimizerCancellation: RunCtx aborts between verifications when
// the caller's context dies — before the descent starts, or mid-descent,
// where it must surface as an error and not as a truncated spec
// reported as a finished optimization. The Programs hook cancels
// deterministically once the initial check is done.
func TestOptimizerCancellation(t *testing.T) {
	alg := locks.ByName("mcs")
	for _, par := range []int{1, 2} {
		for _, at := range []int{0, 2} { // cancel before the descent, or building the first candidate's suite
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			opt := &optimize.Optimizer{
				Model: mm.WMM, Parallelism: par,
				Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
					if calls++; calls == at {
						cancel()
					}
					return suite(alg)(spec)
				},
			}
			if at == 0 {
				cancel()
			}
			if _, err := opt.RunCtx(ctx, alg.DefaultSpec().AllSC()); err == nil {
				t.Errorf("Parallelism %d, canceled at suite build %d: the optimization returned no error", par, at)
			}
			cancel()
		}
	}
}

// countingModel is WMM counting the graphs it is asked about, in total
// and those of three-thread programs.
type countingModel struct{ calls, threeThread atomic.Int64 }

func (m *countingModel) Name() string { return mm.WMM.Name() }

func (m *countingModel) Consistent(g *graph.Graph) bool {
	m.calls.Add(1)
	if len(g.Threads) == 3 {
		m.threeThread.Add(1)
	}
	return mm.WMM.Consistent(g)
}

// TestVerifyDedupsEqualPrograms: a suite that lists one program three
// times is one problem per candidate, and costs exactly the AMC work of
// the suite that lists it once.
func TestVerifyDedupsEqualPrograms(t *testing.T) {
	alg := locks.ByName("ttas")
	descend := func(copies int) (*optimize.Result, int64) {
		m := &countingModel{}
		opt := &optimize.Optimizer{
			Model: m, Parallelism: 1,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				var ps []*vprog.Program
				for i := 0; i < copies; i++ {
					ps = append(ps, harness.MutexClient(alg, spec, 2, 1))
				}
				return ps
			},
		}
		res, err := opt.Run(alg.DefaultSpec().AllSC())
		if err != nil {
			t.Fatal(err)
		}
		return res, m.calls.Load()
	}
	once, onceCalls := descend(1)
	thrice, thriceCalls := descend(3)
	if thriceCalls != onceCalls {
		t.Errorf("three copies of one program cost %d consistency checks, one copy %d", thriceCalls, onceCalls)
	}
	if want := 2 * thrice.Verifications; thrice.Deduped != want || once.Deduped != 0 {
		t.Errorf("Deduped = %d for three copies (want %d: two per verification), %d for one copy (want 0)",
			thrice.Deduped, want, once.Deduped)
	}
	if thrice.Final.Fingerprint() != once.Final.Fingerprint() {
		t.Error("the duplicated suite ended on a different spec")
	}
}

// TestCheapRefuterFirst: once the initial verification has shown which
// program is the small one, it runs first, and the large client listed
// before it is never started for a candidate it refutes. The small
// program is store buffering, which only the all-SC start passes, so
// every candidate is refuted; the large one, a three-thread lock client
// under its own fixed spec, verifies whatever the candidate.
func TestCheapRefuterFirst(t *testing.T) {
	spin := locks.ByName("spin")
	client := func() *vprog.Program { return harness.MutexClient(spin, spin.DefaultSpec(), 3, 1) }
	alone := &countingModel{}
	if res := core.New(alone).Run(client()); !res.Ok() {
		t.Fatalf("the client does not verify: %v", res)
	}

	m := &countingModel{}
	opt := &optimize.Optimizer{
		Model: m, Parallelism: 1,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			return []*vprog.Program{client(), harness.SB(spec.M("sb.w"), spec.M("sb.r"), vprog.ModeNone)}
		},
	}
	res, err := opt.Run(vprog.NewSpec().Def("sb.w", vprog.SC).Def("sb.r", vprog.SC))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Accepted {
			t.Errorf("%s --> %s accepted: store buffering must refute every relaxation", s.Point, s.Tried)
		}
	}
	if got, want := m.threeThread.Load(), alone.calls.Load(); got != want {
		t.Errorf("the client cost %d consistency checks over the descent, %d in one run: it was started for a refuted candidate", got, want)
	}
	if res.Skipped != len(res.Steps) {
		t.Errorf("Skipped = %d, want one per refuted candidate (%d)", res.Skipped, len(res.Steps))
	}
}

// TestWorkersPerRunZeroIsSequential: the optimizer's zero WorkersPerRun
// means one worker per run, as everywhere else. A sequential run
// stops at its first counterexample where a parallel one explores to
// completion, so the descent must cost exactly the consistency checks
// of standalone sequential runs of every spec it tried.
func TestWorkersPerRunZeroIsSequential(t *testing.T) {
	alg := locks.ByName("ttas")
	client := func(spec *vprog.BarrierSpec) *vprog.Program { return harness.MutexClient(alg, spec, 2, 1) }
	m := &countingModel{}
	opt := &optimize.Optimizer{
		Model: m, Parallelism: 1,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program { return []*vprog.Program{client(spec)} },
	}
	initial := alg.DefaultSpec().AllSC()
	res, err := opt.Run(initial)
	if err != nil {
		t.Fatal(err)
	}

	solo := &countingModel{}
	c := core.New(solo)
	c.WorkersPerRun = 1
	c.Run(client(initial))
	spec, refuted := initial.Clone(), 0
	for _, s := range res.Steps {
		tried := spec.Clone()
		tried.Set(s.Point, s.Tried)
		if r := c.Run(client(tried)); !r.Ok() {
			refuted++
		}
		if s.Accepted {
			spec = tried
		}
	}
	if refuted == 0 {
		t.Fatal("no candidate was refuted: nothing tells a sequential run from a parallel one")
	}
	if got, want := m.calls.Load(), solo.calls.Load(); got != want {
		t.Errorf("the descent made %d consistency checks, sequential runs of its specs %d", got, want)
	}
}
