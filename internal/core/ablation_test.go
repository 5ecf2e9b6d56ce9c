package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

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
