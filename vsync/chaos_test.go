package vsync_test

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/vsync"
)

// chaosConfig is the corpus the crash harness sweeps: one real lock
// across the 2..3 thread ladder plus the full litmus corpus, under
// every model — wide enough that the store and checkpoint machinery
// both matter. A pass is short (tens of milliseconds), so
// TestChaosKillResume times its kills against an undisturbed pass.
func chaosConfig(st *vsync.VerdictStore, ckptDir string) vsync.MatrixConfig {
	return vsync.MatrixConfig{
		Locks:              []*vsync.Algorithm{locks.ByName("mcs")},
		NoStructs:          true,
		MaxThreads:         3,
		Store:              st,
		CheckpointDir:      ckptDir,
		CheckpointInterval: 5 * time.Millisecond,
		Parallelism:        1,
		WorkersPerRun:      1,
	}
}

// TestChaosSuiteHelper is the subprocess body of TestChaosKillResume:
// one suite pass against the shared store and checkpoint directory
// named by the environment. It is skipped as a normal test.
func TestChaosSuiteHelper(t *testing.T) {
	if os.Getenv("VSYNC_CHAOS") != "1" {
		t.Skip("subprocess helper for TestChaosKillResume")
	}
	st, err := vsync.OpenStore(os.Getenv("VSYNC_CHAOS_STORE"))
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	defer st.Close()
	res := vsync.VerifyMatrix(chaosConfig(st, os.Getenv("VSYNC_CHAOS_CKPT")))
	if res.Errors > 0 || res.Failures > 0 || res.Undecided > 0 {
		t.Fatalf("helper: %s", res.Summary())
	}
}

// TestChaosKillResume is the crash-safety acceptance test: a cold
// suite run in a subprocess is kill -9'd at random points — mid
// store append, mid checkpoint write, wherever the clock lands — and
// restarted, until one pass completes cleanly. The kill delays are
// drawn inside the wall time of one undisturbed pass, timed first, and
// the test fails unless at least one kill landed before the pass that
// converged. The surviving state must then be exactly what an
// uninterrupted run produces: identical per-cell verdicts, zero
// verdict conflicts in the store, and no cell left undecided. Random
// kill times are logged with their seed so a failing schedule can be
// replayed.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns and kills subprocesses; skipped in -short")
	}

	// Uninterrupted baseline, fully in-process (no store, no
	// checkpoints — plain AMC answers).
	baseline := vsync.VerifyMatrix(vsync.MatrixConfig{
		Locks:         []*vsync.Algorithm{locks.ByName("mcs")},
		NoStructs:     true,
		MaxThreads:    3,
		Parallelism:   1,
		WorkersPerRun: 1,
	})
	if baseline.Errors > 0 || baseline.Failures > 0 {
		t.Fatalf("baseline: %s", baseline.Summary())
	}
	want := verdictMap(t, baseline)

	dir := t.TempDir()
	// helper is one suite pass in a subprocess over the store and
	// checkpoint directory under sub, made on first use.
	helper := func(sub string) *exec.Cmd {
		if err := os.MkdirAll(filepath.Join(dir, sub, "ckpt"), 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=TestChaosSuiteHelper$")
		cmd.Env = append(os.Environ(),
			"VSYNC_CHAOS=1",
			"VSYNC_CHAOS_STORE="+filepath.Join(dir, sub, "verdicts.log"),
			"VSYNC_CHAOS_CKPT="+filepath.Join(dir, sub, "ckpt"),
		)
		return cmd
	}
	storePath, ckptDir := filepath.Join(dir, "chaos", "verdicts.log"), filepath.Join(dir, "chaos", "ckpt")

	// A cold pass, process start included, takes tens of milliseconds:
	// a kill drawn from a fixed range can come after it ends. Time one
	// undisturbed pass in a directory of its own and draw every delay
	// between an eighth and a half of it, so the first pass is killed.
	t0 := time.Now()
	if out, err := helper("timing").CombinedOutput(); err != nil {
		t.Fatalf("undisturbed pass failed:\n%s\n%v", out, err)
	}
	pass := time.Since(t0)

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos seed %d; an undisturbed pass takes %v", seed, pass)

	const maxKills = 15
	kills, completed := 0, false
	for kills < maxKills && !completed {
		cmd := helper("chaos")
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		delay := pass/8 + time.Duration(rng.Int63n(int64(pass*3/8)+1))
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pass after %d kills failed:\n%s\n%v", kills, out.String(), err)
			}
			completed = true
		case <-time.After(delay):
			cmd.Process.Kill()
			<-done
			kills++
			t.Logf("kill %d after %v", kills, delay)
		}
		// Whatever the kill tore, the store must still open (healing
		// any torn tail) — a corrupt-beyond-repair log fails here.
		st, err := vsync.OpenStore(storePath)
		if err != nil {
			t.Fatalf("store unopenable after kill %d: %v", kills, err)
		}
		st.Close()
	}
	if !completed {
		// Every pass got killed; run one undisturbed to convergence.
		cmd := helper("chaos")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("final pass after %d kills failed:\n%s\n%v", kills, out, err)
		}
	}
	t.Logf("suite converged after %d kill(s)", kills)
	if kills == 0 {
		t.Fatalf("no kill landed: the first pass outran a delay drawn inside an undisturbed pass of %v", pass)
	}

	// The surviving store must agree with the uninterrupted baseline on
	// every cell, with zero conflicts (no half-written record was ever
	// served) — crash-recovery changed where verdicts come from, never
	// what they are.
	st, err := vsync.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	final := vsync.VerifyMatrix(chaosConfig(st, ckptDir))
	if final.Errors > 0 || final.Failures > 0 || final.Undecided > 0 {
		t.Fatalf("final matrix: %s", final.Summary())
	}
	if final.Misses > 0 {
		t.Errorf("converged store still required %d AMC runs", final.Misses)
	}
	got := verdictMap(t, final)
	if len(got) != len(want) {
		t.Fatalf("final matrix covers %d cells, baseline %d", len(got), len(want))
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("cell %s: verdict %v after crashes, baseline %v", key, got[key], v)
		}
	}
	if s := st.Stats(); s.Conflicts > 0 {
		t.Errorf("%d verdict conflicts in the post-crash store", s.Conflicts)
	}

	// Converged: every checkpoint retired; atomic-write temp litter from
	// killed writers is tolerated (it is dead weight, not state), but
	// real checkpoint files must be gone.
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".ckpt" {
			t.Errorf("converged suite left checkpoint %s", e.Name())
		}
	}
}
