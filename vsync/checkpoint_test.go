package vsync_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/locks"
	"repro/vsync"
)

// TestRunBudgetResumeDifferential: a budgeted Run that hits its limit
// must return Undecided with a resumable checkpoint, and driving the
// Resume loop to completion must reproduce the uninterrupted run's
// verdict and statistics exactly — segmentation is invisible in the
// answer.
func TestRunBudgetResumeDifferential(t *testing.T) {
	p := goodProgram(t)
	base := verify(vsync.ModelWMM, p)
	if base.Verdict != vsync.OK {
		t.Fatalf("baseline: %v", base.Verdict)
	}

	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, vsync.RunOptions{
		Parallelism:   1,
		WorkersPerRun: 1,
		Budget:        vsync.Budget{MaxGraphs: 7},
	})
	if rr.Result.Verdict != vsync.Undecided {
		t.Fatalf("budgeted run verdict %v, want Undecided", rr.Result.Verdict)
	}
	if rr.Result.Checkpoint == nil {
		t.Fatal("Undecided result carries no checkpoint")
	}

	res, segments := rr.Result, 1
	for res.Verdict == vsync.Undecided {
		if segments > 10_000 {
			t.Fatal("resume loop does not converge")
		}
		res = vsync.Resume(vsync.ModelWMM, p, res.Checkpoint, vsync.RunOptions{
			WorkersPerRun: 1,
			Budget:        vsync.Budget{MaxGraphs: 7},
		})
		segments++
	}
	if segments < 2 {
		t.Fatalf("budget of 7 graphs finished in %d segment(s); it did not actually segment", segments)
	}
	if res.Verdict != base.Verdict {
		t.Fatalf("segmented verdict %v, baseline %v", res.Verdict, base.Verdict)
	}
	if res.Stats != base.Stats {
		t.Errorf("segmented stats %+v diverge from baseline %+v", res.Stats, base.Stats)
	}
}

// TestResumeRefusesForeignCheckpoint: a checkpoint stamped with a
// different code epoch, or presented with the wrong program, must be
// refused with an Error — never silently explored.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	p := goodProgram(t)
	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, vsync.RunOptions{
		Parallelism: 1, WorkersPerRun: 1, Budget: vsync.Budget{MaxGraphs: 5},
	})
	ck := rr.Result.Checkpoint
	if ck == nil {
		t.Fatal("no checkpoint to tamper with")
	}

	ck.Epoch = graph.Hash128{0xbad, 0xbeef}
	if r := vsync.Resume(vsync.ModelWMM, p, ck, vsync.RunOptions{}); r.Err == nil || r.Verdict == vsync.OK {
		t.Fatalf("foreign-epoch resume: verdict %v err %v, want Error", r.Verdict, r.Err)
	}

	ck.Epoch = graph.Hash128{} // unstamped: identity still validated by core
	other := badProgram(t)
	if r := vsync.Resume(vsync.ModelWMM, other, ck, vsync.RunOptions{}); r.Err == nil {
		t.Fatalf("wrong-program resume: verdict %v, want Error", r.Verdict)
	}

	if r := vsync.Resume(vsync.ModelWMM, p, nil, vsync.RunOptions{}); r.Err == nil {
		t.Fatal("nil-checkpoint resume did not error")
	}
}

// TestRunCheckpointDir: with a checkpoint directory, budgeted Run calls
// persist their interrupted frontier to a content-addressed file and
// later calls resume from it automatically — repeat the same Run until
// the verdict is decisive, then the file must be retired.
func TestRunCheckpointDir(t *testing.T) {
	p := goodProgram(t)
	base := verify(vsync.ModelWMM, p)
	dir := t.TempDir()

	opts := vsync.RunOptions{
		Parallelism:    1,
		WorkersPerRun:  1,
		CollectResults: true,
		Budget:         vsync.Budget{MaxGraphs: 7},
		CheckpointDir:  dir,
	}
	var res *vsync.Result
	calls := 0
	for {
		calls++
		if calls > 10_000 {
			t.Fatal("checkpoint-dir run loop does not converge")
		}
		res = vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, opts).Results[0]
		if res.Verdict != vsync.Undecided {
			break
		}
		if n := ckptFiles(t, dir); n != 1 {
			t.Fatalf("after undecided segment: %d checkpoint files, want 1", n)
		}
	}
	if calls < 2 {
		t.Fatal("run decided within one segment; budget did not bite")
	}
	if res.Verdict != base.Verdict {
		t.Fatalf("verdict %v, baseline %v", res.Verdict, base.Verdict)
	}
	if res.Stats != base.Stats {
		t.Errorf("stats %+v diverge from baseline %+v", res.Stats, base.Stats)
	}
	if n := ckptFiles(t, dir); n != 0 {
		t.Errorf("decisive verdict left %d checkpoint file(s) behind", n)
	}
}

// TestResumeRetiresKeyedCheckpoint: Resume addresses the checkpoint
// file by the key the interrupted Run used, so the decisive resume
// retires it instead of leaving it for the next Run to re-load.
func TestResumeRetiresKeyedCheckpoint(t *testing.T) {
	alg := locks.ByName("ttas")
	spec := alg.DefaultSpec()
	p := vsync.MutexClient(alg, spec, 2, 1)
	opts := vsync.RunOptions{
		Parallelism:   1,
		StoreKeys:     []vsync.StoreKey{vsync.ProblemKey(vsync.ModelWMM, spec, p)},
		Budget:        vsync.Budget{MaxGraphs: 30},
		CheckpointDir: t.TempDir(),
	}
	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, opts)
	if rr.Result.Verdict != vsync.Undecided || ckptFiles(t, opts.CheckpointDir) != 1 {
		t.Fatalf("budgeted run: %v with %d checkpoint files, want undecided with 1", rr.Result.Verdict, ckptFiles(t, opts.CheckpointDir))
	}
	opts.Budget = vsync.Budget{}
	res := vsync.Resume(vsync.ModelWMM, p, rr.Result.Checkpoint, opts)
	if res.Verdict != vsync.OK || res.Err != nil {
		t.Fatalf("resume: %v (err %v)", res.Verdict, res.Err)
	}
	if n := ckptFiles(t, opts.CheckpointDir); n != 0 {
		t.Errorf("decisive resume left %d checkpoint file(s) behind", n)
	}
}

// TestMatrixBudgetResume: a budgeted VerifyMatrix leaves the expensive
// cells Undecided (neither failures nor errors) with checkpoints on
// disk; re-running the same config must resume them — strictly fewer
// undecided cells each pass — and the converged matrix must be
// differentially identical to an unbudgeted run.
func TestMatrixBudgetResume(t *testing.T) {
	// Storeless on purpose (the checkpoint dir alone carries progress),
	// so convergence needs every cell to land on the same pass — keep
	// the corpus to the three mcs cells this test was calibrated for.
	cfg := vsync.MatrixConfig{
		Locks:      []*vsync.Algorithm{locks.ByName("mcs")},
		NoStructs:  true,
		MaxThreads: 2,
		NoLitmus:   true,
	}
	baseline := vsync.VerifyMatrix(cfg)
	if baseline.Errors > 0 || baseline.Failures > 0 {
		t.Fatalf("baseline: %s", baseline.Summary())
	}

	dir := t.TempDir()
	cfg.Budget = vsync.Budget{MaxGraphs: 40}
	cfg.CheckpointDir = dir
	cfg.WorkersPerRun = 1
	cfg.Parallelism = 1

	first := vsync.VerifyMatrix(cfg)
	if first.Undecided == 0 {
		t.Fatalf("40-graph budget decided the whole mcs matrix: %s", first.Summary())
	}
	if first.Errors > 0 || first.Failures > 0 {
		t.Fatalf("undecided cells misclassified: %s", first.Summary())
	}
	if n := ckptFiles(t, dir); n == 0 {
		t.Fatal("undecided cells left no checkpoint files")
	}

	// Every pass grants each undecided cell a fresh 40-graph segment, so
	// the whole matrix must converge within a small bounded number of
	// passes (the largest cell is a few hundred pops). The undecided
	// count itself need not shrink every pass — cells of different sizes
	// finish on different passes.
	last, passes := first, 1
	for last.Undecided > 0 {
		if passes > 100 {
			t.Fatalf("matrix resume loop does not converge: still %d undecided", last.Undecided)
		}
		last, passes = vsync.VerifyMatrix(cfg), passes+1
	}
	if passes < 2 {
		t.Fatal("matrix converged in one pass; budget did not bite")
	}
	if n := ckptFiles(t, dir); n != 0 {
		t.Errorf("converged matrix left %d checkpoint file(s)", n)
	}

	want := verdictMap(t, baseline)
	got := verdictMap(t, last)
	if len(got) != len(want) {
		t.Fatalf("converged run covers %d cells, baseline %d", len(got), len(want))
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("cell %s: converged verdict %v, baseline %v", key, got[key], v)
		}
	}
}

// TestCheckpointFileAPI: the exported file round-trip, plus the
// stale-epoch ignore path — a checkpoint from "another build" in the
// directory must not poison a fresh run.
func TestCheckpointFileAPI(t *testing.T) {
	p := goodProgram(t)
	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, vsync.RunOptions{
		Parallelism: 1, WorkersPerRun: 1, Budget: vsync.Budget{MaxGraphs: 5},
	})
	ck := rr.Result.Checkpoint
	if ck == nil {
		t.Fatal("no checkpoint")
	}
	ck.Epoch = graph.Hash128{1, 2} // "another build"

	dir := t.TempDir()
	key := vsync.ProblemKey(vsync.ModelWMM, nil, p)
	path := vsync.CheckpointPath(dir, key)
	if err := vsync.WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := vsync.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != ck.Epoch || got.FrontierLen() != ck.FrontierLen() {
		t.Fatalf("round-trip mismatch: epoch %v/%v frontier %d/%d",
			got.Epoch, ck.Epoch, got.FrontierLen(), ck.FrontierLen())
	}

	// A fresh run over the same key must ignore the stale-epoch file
	// (start from scratch, same verdict as ever) rather than resume or
	// error.
	res := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, vsync.RunOptions{
		Parallelism: 1, WorkersPerRun: 1, CollectResults: true, CheckpointDir: dir,
	}).Results[0]
	if res.Verdict != vsync.OK {
		t.Fatalf("run with stale checkpoint in dir: %v (err %v)", res.Verdict, res.Err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("decisive run did not retire the stale checkpoint file")
	}
}

// ckptFiles counts *.ckpt files in dir, failing on leftover temp files
// (atomic-write litter).
func ckptFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		switch {
		case filepath.Ext(e.Name()) == ".ckpt":
			n++
		default:
			t.Fatalf("unexpected file in checkpoint dir: %s", e.Name())
		}
	}
	return n
}
