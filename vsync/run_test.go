package vsync_test

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
	"repro/vsync"
)

// goodProgram is a small verifying client; badProgram a violating one.
func goodProgram(t *testing.T) *vsync.Program {
	t.Helper()
	alg := locks.ByName("ttas")
	if alg == nil {
		t.Fatal("ttas not registered")
	}
	return vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1)
}

func badProgram(t *testing.T) *vsync.Program {
	t.Helper()
	for _, alg := range locks.All() {
		if alg.Buggy {
			return vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1)
		}
	}
	t.Skip("no buggy study-case lock registered")
	return nil
}

// verify is one standalone sequential run.
func verify(model vsync.Model, p *vsync.Program) *vsync.Result {
	return vsync.Run(model, []*vsync.Program{p},
		vsync.RunOptions{Parallelism: 1, WorkersPerRun: 1}).Results[0]
}

// TestRunWithStore: Run's store integration — cold run populates,
// warm run is served without AMC work, and a stored failure fail-fasts
// before any run.
func TestRunWithStore(t *testing.T) {
	good := goodProgram(t)
	bad := badProgram(t)
	st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ps := []*vsync.Program{good, bad}
	cold := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{Parallelism: 1, Store: st})
	if cold.StoreHits != 0 || cold.Failed != 1 {
		t.Fatalf("cold run: hits=%d failed=%d, want 0 and 1", cold.StoreHits, cold.Failed)
	}
	if cold.StoreErr != nil {
		t.Fatalf("cold run store error: %v", cold.StoreErr)
	}

	warm := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{Parallelism: 1, Store: st})
	if warm.StoreHits == 0 {
		t.Fatalf("warm run hit nothing")
	}
	if warm.Failed != 1 || warm.Result.Verdict != cold.Result.Verdict {
		t.Fatalf("warm run diverges: failed=%d verdict=%v, cold failed=%d verdict=%v",
			warm.Failed, warm.Result.Verdict, cold.Failed, cold.Result.Verdict)
	}
	if !warm.FromStore[1] {
		t.Error("failing program's verdict not marked FromStore on the warm run")
	}

	// A dead store surfaces in StoreErr without tainting verdicts (on a
	// program the session cannot serve from memory).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mcs := locks.ByName("mcs")
	fresh := vsync.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	dead := vsync.Run(vsync.ModelWMM, []*vsync.Program{fresh}, vsync.RunOptions{Parallelism: 1, Store: st})
	if dead.Failed != -1 || dead.Result.Verdict != vsync.OK {
		t.Fatalf("dead-store run tainted the verdict: %+v", dead.Result)
	}
	if dead.StoreErr == nil {
		t.Error("append to a closed store vanished: StoreErr is nil")
	}
}

// TestRunStoreKeys: Run and VerifyMatrix are one engine behind two
// shapes — over the default corpus at t=2 a Run per model with the
// matrix's keys and a VerifyMatrix agree on the verdict of every key,
// and each leaves the store entirely warm for the other.
func TestRunStoreKeys(t *testing.T) {
	models := []vsync.Model{vsync.ModelSC, vsync.ModelTSO, vsync.ModelWMM}
	type row struct {
		p    *vsync.Program
		spec *vsync.BarrierSpec
	}
	var corpus []row
	for _, alg := range locks.Verifiable() {
		corpus = append(corpus, row{vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1), alg.DefaultSpec()})
	}
	for _, w := range workload.Verifiable() {
		corpus = append(corpus, row{vsync.WorkloadProgram(w, nil, 2), w.DefaultSpec()})
	}
	for _, n := range harness.LitmusNames() {
		corpus = append(corpus, row{harness.Litmus(n, false), nil}, row{harness.Litmus(n, true), nil})
	}
	// runAll is the corpus as Run sees it: per model, every program with
	// its key. It returns the verdict per key hash and the store hits.
	runAll := func(st *vsync.VerdictStore) (map[[2]uint64]vsync.Verdict, int) {
		verdicts, hits := map[[2]uint64]vsync.Verdict{}, 0
		for _, m := range models {
			var ps []*vsync.Program
			var keys []vsync.StoreKey
			for _, r := range corpus {
				ps, keys = append(ps, r.p), append(keys, vsync.ProblemKey(m, r.spec, r.p))
			}
			// Litmus "failures" are observations: go on behind each (on one
			// slot everything before it has finished).
			for lo := 0; lo < len(ps); {
				rr := vsync.Run(m, ps[lo:], vsync.RunOptions{Parallelism: 1, Store: st, StoreKeys: keys[lo:]})
				if rr.StoreErr != nil {
					t.Fatal(rr.StoreErr)
				}
				n := len(ps) - lo
				if rr.Failed >= 0 {
					n = rr.Failed + 1
				}
				for i, r := range rr.Results[:n] {
					verdicts[keys[lo+i].Hash()] = r.Verdict
					if rr.FromStore[i] {
						hits++
					}
				}
				lo += n
			}
		}
		return verdicts, hits
	}
	open := func() *vsync.VerdictStore {
		st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	// Run first, matrix second.
	st := open()
	byRun, _ := runAll(st)
	res := vsync.VerifyMatrix(vsync.MatrixConfig{Store: st})
	if res.Hits != len(res.Cells) || len(res.Cells) != len(models)*len(corpus) {
		t.Fatalf("matrix after Run: %d cells for %d problems, %s", len(res.Cells), len(models)*len(corpus), res.Summary())
	}
	if st.Len() != len(byRun) {
		t.Errorf("store holds %d records for %d distinct keys", st.Len(), len(byRun))
	}
	// Matrix first, Run second.
	st = open()
	cold := vsync.VerifyMatrix(vsync.MatrixConfig{Store: st})
	if cold.Hits != 0 || cold.Misses != len(byRun) || !cold.Ok() {
		t.Fatalf("cold matrix: want %d AMC runs, %s", len(byRun), cold.Summary())
	}
	warm, hits := runAll(st)
	if hits != len(cold.Cells) {
		t.Errorf("Run after matrix: %d of %d programs served by the store", hits, len(cold.Cells))
	}
	for h, v := range byRun {
		if warm[h] != v {
			t.Errorf("key %x: Run computed %v, the matrix stored %v", h, v, warm[h])
		}
	}
}

// TestRunSharedKey: two programs with one key are one problem — one AMC
// run, one record, the second program served by the first one's run.
func TestRunSharedKey(t *testing.T) {
	p, q := goodProgram(t), goodProgram(t)
	st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p, q}, vsync.RunOptions{Parallelism: 1, WorkersPerRun: 1, Store: st})
	if rr.Failed != -1 || rr.StoreErr != nil || rr.StoreHits != 0 {
		t.Fatalf("shared-key run: %+v", rr)
	}
	if want := verify(vsync.ModelWMM, p).Stats; rr.Result.Stats != want || rr.Results[0].Stats != want {
		t.Errorf("statistics %+v, want those of one run: %+v", rr.Result.Stats, want)
	}
	if r := rr.Results[1]; r.Verdict != vsync.OK || r.Stats.Popped != 0 {
		t.Errorf("second program was not served by the first one's run: %v", r)
	}
	if st.Len() != 1 || st.Stats().Appended != 1 {
		t.Errorf("store gained %d records (%d appends), want 1", st.Len(), st.Stats().Appended)
	}
}

// TestZeroWorkersPerRunIsOne: WorkersPerRun's zero is one worker per run
// everywhere — in Run and VerifyMatrix as in core.Checker — however wide
// the pool. Run's reduced result keeps the widest run's seat count.
// VerifyMatrix keeps no scheduler counters per cell, so its runs are
// counted through the lock's New, which every worker of a run calls
// once when it builds the program: a zero-worker suite builds exactly
// as often as a one-worker suite, and a two-worker suite once more per
// run.
func TestZeroWorkersPerRunIsOne(t *testing.T) {
	var ps []*vsync.Program
	for _, name := range []string{"ttas", "mcs", "ticket"} {
		alg := locks.ByName(name)
		ps = append(ps, vsync.MutexClient(alg, alg.DefaultSpec(), 2, 1))
	}
	rr := vsync.Run(vsync.ModelWMM, ps, vsync.RunOptions{})
	if rr.Failed >= 0 || rr.Result.Sched.Workers != 1 {
		t.Errorf("Run with RunOptions{}: failed %d, widest run on %d workers, want every run OK on 1",
			rr.Failed, rr.Result.Sched.Workers)
	}

	var builds atomic.Int64
	counted := *locks.ByName("ttas")
	newLock := counted.New
	counted.New = func(env vprog.Env, spec *vprog.BarrierSpec, n int) locks.Lock {
		builds.Add(1)
		return newLock(env, spec, n)
	}
	suite := func(workers int) (int64, int) {
		builds.Store(0)
		res := vsync.VerifyMatrix(vsync.MatrixConfig{
			Models: []vsync.Model{vsync.ModelWMM}, Locks: []*vsync.Algorithm{&counted},
			MaxThreads: 3, NoStructs: true, NoLitmus: true, WorkersPerRun: workers,
		})
		if res.Errors+res.Failures > 0 {
			t.Fatalf("WorkersPerRun %d: %s", workers, res.Summary())
		}
		return builds.Load(), res.Misses
	}
	zero, runs := suite(0)
	one, _ := suite(1)
	two, _ := suite(2)
	if runs == 0 || zero != one || two != one+int64(runs) {
		t.Errorf("lock builds over %d runs: %d at WorkersPerRun 0, %d at 1, %d at 2; want 0 equal to 1 and 2 one more per run",
			runs, zero, one, two)
	}
}
