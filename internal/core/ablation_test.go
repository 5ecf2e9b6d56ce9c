package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// TestAblationDedup: disabling the visited set must not change the
// verdict of a run that still finishes, and must cost at least as many
// pops — evidence that the fingerprint set earns its keep. The client is
// small on purpose: without the set a run may not terminate at all
// (treiber t=3 is Undecided at 2,000,000 pops).
func TestAblationDedup(t *testing.T) {
	p := harness.MutexClient(locks.ByName("ttas"), locks.ByName("ttas").DefaultSpec(), 2, 1)

	with := core.New(mm.WMM)
	resWith := with.Run(p)
	if !resWith.Ok() {
		t.Fatal(resWith)
	}
	if resWith.Stats.Duplicates == 0 {
		t.Error("expected the visited set to prune duplicate graphs")
	}

	without := core.New(mm.WMM)
	without.DisableDedup = true
	resWithout := without.Run(p)
	if !resWithout.Ok() {
		t.Fatalf("dedup-free run changed the verdict: %v", resWithout)
	}
	if resWithout.Stats.Popped < resWith.Stats.Popped {
		t.Errorf("dedup-free exploration should do at least as much work: %d vs %d",
			resWithout.Stats.Popped, resWith.Stats.Popped)
	}
}

// TestAblationPSC: the RA model (WMM without the SC axiom) must accept
// SC-access store buffering — demonstrating exactly which results rest
// on psc — while agreeing with WMM elsewhere.
func TestAblationPSC(t *testing.T) {
	scSB := harness.SB(vprog.SC, vprog.SC, vprog.ModeNone)
	if !reachable(t, mm.RA, scSB) {
		t.Error("RA (no psc) must allow store buffering even with SC accesses")
	}
	if reachable(t, mm.RA, harness.MP(vprog.Rel, vprog.Acq)) {
		t.Error("RA must still forbid the MP stale read (sw/hb intact)")
	}
	// The rw lock's Dekker handshake needs psc: under RA the torn read
	// appears.
	alg := locks.ByName("rw")
	res := core.New(mm.RA).Run(harness.RWClient(alg, alg.DefaultSpec(), 1, 1, 1))
	if res.Verdict != core.SafetyViolation {
		t.Errorf("rw lock under RA should exhibit the Dekker torn read, got %v", res)
	}
}
