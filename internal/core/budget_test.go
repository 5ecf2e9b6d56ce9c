package core

import (
	"testing"

	"repro/internal/mm"
	"repro/internal/vprog"
)

// TestZeroBudgetCaps: a Budget that sets no graph cap still has one
// (RunCtx arms graphCap for every segment), so a caller that overwrites
// Checker.Budget with a zero value keeps the cap.
func TestZeroBudgetCaps(t *testing.T) {
	for _, b := range []Budget{{}, {MaxDuration: 1}, {MaxGraphs: -1}} {
		if got := b.graphCap(); got != 2_000_000 {
			t.Errorf("%+v caps a segment at %d pops, want 2,000,000", b, got)
		}
	}
	if got := (Budget{MaxGraphs: 10}).graphCap(); got != 10 {
		t.Errorf("Budget{MaxGraphs: 10} caps a segment at %d pops", got)
	}
}

// TestPlainRunSkipsFingerprint: a run with no budget, resume, sink or
// cancel-checkpoint builds the program once, for its worker, and never
// for a fingerprint; a run that checkpoints builds it once more, for the
// checkpoint's program identity.
func TestPlainRunSkipsFingerprint(t *testing.T) {
	builds := 0
	p := &vprog.Program{Name: "count-builds", Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
		builds++
		x := env.Var("x", 0)
		store := func(m vprog.Mem) { m.Store(x, 1, vprog.Rlx) }
		return []vprog.ThreadFunc{store, store}, nil
	}}
	if res := New(mm.WMM).Run(p); !res.Ok() || builds != 1 {
		t.Fatalf("plain run: %v after %d builds, want ok after 1", res, builds)
	}

	builds = 0
	c := New(mm.WMM)
	c.Budget = Budget{MaxGraphs: 1}
	res := c.Run(p)
	if res.Verdict != Undecided || res.Checkpoint == nil || builds != 2 {
		t.Fatalf("budgeted run: %v after %d builds, want undecided with a checkpoint after 2", res, builds)
	}
	if res.Checkpoint.Prog != p.Fingerprint128() {
		t.Fatal("the checkpoint does not carry the program's fingerprint")
	}
}
