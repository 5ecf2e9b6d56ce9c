package vsync_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/locks"
	"repro/internal/problem"
	"repro/vsync"
)

// TestRunCheckpointDir: with a checkpoint directory, budgeted Run calls
// persist their interrupted frontier to the file their key names and
// later calls resume from it automatically — repeat the same Run until
// the verdict is decisive: it and its statistics must be the
// uninterrupted run's, and the file must then be retired. The keyed
// case carries the spec in StoreKeys, as vsynccheck does: re-running
// with the same key resumes that file and then deletes it.
func TestRunCheckpointDir(t *testing.T) {
	alg := locks.ByName("ttas")
	spec := alg.DefaultSpec()
	p := vsync.MutexClient(alg, spec, 2, 1)
	base := verify(vsync.ModelWMM, p)
	for _, keyed := range []bool{false, true} {
		dir := t.TempDir()
		opts := vsync.RunOptions{
			Parallelism:   1,
			WorkersPerRun: 1,
			Budget:        vsync.Budget{MaxGraphs: 7},
			CheckpointDir: dir,
		}
		key := vsync.ProblemKey(vsync.ModelWMM, nil, p)
		if keyed {
			key = vsync.ProblemKey(vsync.ModelWMM, spec, p)
			opts.StoreKeys = []vsync.StoreKey{key}
		}
		var res *vsync.Result
		calls := 0
		for {
			calls++
			if calls > 10_000 {
				t.Fatalf("keyed %v: checkpoint-dir run loop does not converge", keyed)
			}
			res = vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, opts).Results[0]
			if res.Verdict != vsync.Undecided {
				break
			}
			if n := ckptFiles(t, dir); n != 1 {
				t.Fatalf("keyed %v: after undecided segment: %d checkpoint files, want 1", keyed, n)
			}
			if _, err := os.Stat(problem.CheckpointPath(dir, key)); err != nil {
				t.Fatalf("keyed %v: the checkpoint is not where its key names it: %v", keyed, err)
			}
		}
		if calls < 2 {
			t.Fatalf("keyed %v: run decided within one segment; budget did not bite", keyed)
		}
		if res.Verdict != base.Verdict || res.Err != nil {
			t.Fatalf("keyed %v: verdict %v (err %v), baseline %v", keyed, res.Verdict, res.Err, base.Verdict)
		}
		if res.Stats != base.Stats {
			t.Errorf("keyed %v: stats %+v diverge from baseline %+v", keyed, res.Stats, base.Stats)
		}
		if n := ckptFiles(t, dir); n != 0 {
			t.Errorf("keyed %v: decisive verdict left %d checkpoint file(s) behind", keyed, n)
		}
	}
}

// TestResumeRetiresKeyedCheckpoint: a keyed Run (spec in StoreKeys,
// as vsynccheck passes it) leaves its checkpoint at the file its key
// names; re-running with the same key and no budget resumes that file
// and the decisive verdict retires it instead of leaving it behind.
func TestResumeRetiresKeyedCheckpoint(t *testing.T) {
	alg := locks.ByName("ttas")
	spec := alg.DefaultSpec()
	p := vsync.MutexClient(alg, spec, 2, 1)
	key := vsync.ProblemKey(vsync.ModelWMM, spec, p)
	opts := vsync.RunOptions{
		Parallelism:   1,
		StoreKeys:     []vsync.StoreKey{key},
		Budget:        vsync.Budget{MaxGraphs: 30},
		CheckpointDir: t.TempDir(),
	}
	rr := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, opts)
	if rr.Result.Verdict != vsync.Undecided || ckptFiles(t, opts.CheckpointDir) != 1 {
		t.Fatalf("budgeted run: %v with %d checkpoint files, want undecided with 1", rr.Result.Verdict, ckptFiles(t, opts.CheckpointDir))
	}
	if _, err := os.Stat(problem.CheckpointPath(opts.CheckpointDir, key)); err != nil {
		t.Fatalf("the checkpoint is not where its key names it: %v", err)
	}
	opts.Budget = vsync.Budget{}
	res := vsync.Run(vsync.ModelWMM, []*vsync.Program{p}, opts).Results[0]
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

// TestCheckpointFileAPI: the checkpoint file round-trip, plus the
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
	path := problem.CheckpointPath(dir, key)
	if err := core.WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadCheckpointFile(path)
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
		Parallelism: 1, WorkersPerRun: 1, CheckpointDir: dir,
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
