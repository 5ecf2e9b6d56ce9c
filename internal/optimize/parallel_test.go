package optimize_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// speculative engine (workers, racing candidate ladders, memoization)
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
			Parallelism: 4, Speculate: true, Cache: optimize.NewCache(),
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
// report the hits.
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
	if res.CacheHits != cache.Hits() {
		t.Errorf("Result.CacheHits=%d but cache counted %d", res.CacheHits, cache.Hits())
	}
	if res.CacheLookups != cache.Lookups() {
		t.Errorf("Result.CacheLookups=%d but cache counted %d", res.CacheLookups, cache.Lookups())
	}
	if cache.Len() == 0 {
		t.Error("cache stored no verdicts")
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
// the caller's context dies.
func TestOptimizerCancellation(t *testing.T) {
	alg := locks.ByName("mcs")
	opt := &optimize.Optimizer{Model: mm.WMM, Programs: suite(alg), Parallelism: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := opt.RunCtx(ctx, alg.DefaultSpec().AllSC()); err == nil {
		t.Fatal("pre-canceled optimization must return an error")
	}
}

// TestOptimizerCancellationSpeculative: cancellation arriving
// mid-descent must surface as an error from the speculative engine
// too — not as a truncated spec reported as a finished optimization.
// The Programs hook cancels deterministically once the initial check
// is done and the first ladder begins.
func TestOptimizerCancellationSpeculative(t *testing.T) {
	alg := locks.ByName("mcs")
	ctx, cancel := context.WithCancel(context.Background())
	progs := suite(alg)
	var mu sync.Mutex
	calls := 0
	opt := &optimize.Optimizer{
		Model: mm.WMM,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			mu.Lock()
			calls++
			if calls == 2 {
				cancel()
			}
			mu.Unlock()
			return progs(spec)
		},
		Parallelism: 4, Speculate: true,
	}
	if _, err := opt.RunCtx(ctx, alg.DefaultSpec().AllSC()); err == nil {
		t.Fatal("mid-run cancellation must surface as an error")
	}
}

// TestSpeculativeSpeedup is the wall-clock claim of the parallel
// engine, asserted loosely (timing tests on shared CI hardware are
// noisy; Report carries the precise numbers): at 4 workers the
// speculative engine must beat the sequential descent on a workload
// with real per-candidate cost. Skipped below 4 hardware threads,
// where there is no parallelism to win.
func TestSpeculativeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is slow")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup, have %d", runtime.NumCPU())
	}
	alg := locks.ByName("ctwamcs")

	seq := &optimize.Optimizer{Model: mm.WMM, Programs: suite(alg), Parallelism: 1}
	t0 := time.Now()
	seqRes, err := seq.Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	seqWall := time.Since(t0)

	par := &optimize.Optimizer{
		Model: mm.WMM, Programs: suite(alg),
		Parallelism: 4, Speculate: true, Cache: optimize.NewCache(),
	}
	t0 = time.Now()
	parRes, err := par.Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	parWall := time.Since(t0)

	t.Logf("sequential %v, parallel %v (%.2fx)\n%s",
		seqWall, parWall, float64(seqWall)/float64(parWall), parRes.Report())
	if parRes.Final.Fingerprint() != seqRes.Final.Fingerprint() {
		t.Fatal("speedup run diverged from sequential result")
	}
	// The target is >= 2x at 4 workers; assert half of that so a noisy
	// neighbor cannot flake the suite, and leave the precise ratio in
	// the log.
	if parWall > seqWall {
		t.Errorf("parallel engine slower than sequential: %v vs %v", parWall, seqWall)
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
