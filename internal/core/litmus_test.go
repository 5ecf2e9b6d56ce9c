package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// reachable runs the checker and reports whether the program's "bad"
// outcome is observable under the model (litmus programs are phrased so
// the weak outcome fails an assertion or the final check).
func reachable(t *testing.T, model mm.Model, p *vprog.Program) bool {
	t.Helper()
	res := core.New(model).Run(p)
	switch res.Verdict {
	case core.OK:
		return false
	case core.SafetyViolation:
		return true
	default:
		t.Fatalf("%s under %s: unexpected result %v", p.Name, model.Name(), res)
		return false
	}
}

// verdict runs the checker and returns the verdict, failing on Error.
func verdict(t *testing.T, model mm.Model, p *vprog.Program) core.Verdict {
	t.Helper()
	res := core.New(model).Run(p)
	if res.Verdict == core.Error {
		t.Fatalf("%s under %s: checker error: %v", p.Name, model.Name(), res.Err)
	}
	return res.Verdict
}

func TestSB(t *testing.T) {
	relaxed := harness.SB(vprog.Rlx, vprog.Rlx, vprog.ModeNone)
	if reachable(t, mm.SC, relaxed) {
		t.Error("SC must forbid store buffering")
	}
	if !reachable(t, mm.TSO, relaxed) {
		t.Error("TSO must allow store buffering")
	}
	if !reachable(t, mm.WMM, relaxed) {
		t.Error("WMM must allow relaxed store buffering")
	}

	fenced := harness.SB(vprog.Rlx, vprog.Rlx, vprog.SC)
	if reachable(t, mm.TSO, fenced) {
		t.Error("TSO must forbid store buffering across mfence")
	}
	if reachable(t, mm.WMM, fenced) {
		t.Error("WMM must forbid store buffering across SC fences")
	}

	scAccesses := harness.SB(vprog.SC, vprog.SC, vprog.ModeNone)
	if reachable(t, mm.WMM, scAccesses) {
		t.Error("WMM must forbid store buffering with SC accesses")
	}

	relAcq := harness.SB(vprog.Rel, vprog.Acq, vprog.ModeNone)
	if !reachable(t, mm.WMM, relAcq) {
		t.Error("WMM must allow store buffering with only rel/acq accesses")
	}
}

func TestMP(t *testing.T) {
	relaxed := harness.MP(vprog.Rlx, vprog.Rlx)
	if reachable(t, mm.SC, relaxed) {
		t.Error("SC must forbid the MP stale read")
	}
	if reachable(t, mm.TSO, relaxed) {
		t.Error("TSO must forbid the MP stale read (no W->W or R->R reordering)")
	}
	if !reachable(t, mm.WMM, relaxed) {
		t.Error("WMM must allow the MP stale read with relaxed accesses")
	}
	if reachable(t, mm.WMM, harness.MP(vprog.Rel, vprog.Acq)) {
		t.Error("WMM must forbid the MP stale read with release/acquire")
	}
	if !reachable(t, mm.WMM, harness.MP(vprog.Rel, vprog.Rlx)) {
		t.Error("WMM must allow the MP stale read with a relaxed flag load")
	}
	if !reachable(t, mm.WMM, harness.MP(vprog.Rlx, vprog.Acq)) {
		t.Error("WMM must allow the MP stale read with a relaxed flag store")
	}
}

func TestCoRR(t *testing.T) {
	for _, model := range mm.All() {
		if reachable(t, model, harness.CoRR()) {
			t.Errorf("%s must enforce per-location coherence", model.Name())
		}
	}
}

func TestLB(t *testing.T) {
	relaxed := harness.LB(vprog.Rlx, vprog.Rlx)
	for _, model := range mm.All() {
		// Our WMM follows RC11's no-thin-air (acyclic(po ∪ rf)), so load
		// buffering is forbidden on every built-in model. This is a
		// deliberate divergence from hardware ARMv8 / IMM, which allow LB
		// without dependencies.
		if reachable(t, model, relaxed) {
			t.Errorf("%s must forbid load buffering (no-thin-air)", model.Name())
		}
	}
}

func TestIRIW(t *testing.T) {
	if reachable(t, mm.WMM, harness.IRIW(vprog.SC)) {
		t.Error("WMM must forbid IRIW with SC accesses")
	}
	if !reachable(t, mm.WMM, harness.IRIW(vprog.Acq)) {
		t.Error("WMM must allow IRIW with acquire loads")
	}
	if reachable(t, mm.TSO, harness.IRIW(vprog.Rlx)) {
		t.Error("TSO must forbid IRIW (multi-copy atomic)")
	}
	if reachable(t, mm.SC, harness.IRIW(vprog.Rlx)) {
		t.Error("SC must forbid IRIW")
	}
}

func TestFAAAtomicity(t *testing.T) {
	for _, model := range mm.All() {
		if reachable(t, model, harness.FAAAtomicity()) {
			t.Errorf("%s must enforce RMW atomicity", model.Name())
		}
	}
}

func TestAwaitSimple(t *testing.T) {
	for _, model := range mm.All() {
		if v := verdict(t, model, harness.AwaitSimple(vprog.Rel, vprog.Acq)); v != core.OK {
			t.Errorf("%s: simple await should verify, got %v", model.Name(), v)
		}
		if v := verdict(t, model, harness.AwaitSimple(vprog.Rlx, vprog.Rlx)); v != core.OK {
			t.Errorf("%s: relaxed simple await should still terminate, got %v", model.Name(), v)
		}
	}
}

func TestAwaitNoWriter(t *testing.T) {
	for _, model := range mm.All() {
		if v := verdict(t, model, harness.AwaitNoWriter()); v != core.ATViolation {
			t.Errorf("%s: awaiting a flag nobody raises must violate AT, got %v", model.Name(), v)
		}
	}
}

// TestFig1PartialMCS reproduces the paper's Fig. 1/2/5: with release/
// acquire on the hand-off variable the await terminates on WMM; fully
// relaxed, the modification order may order the hand-off before the
// locker's own store, and the locker hangs (execution graph β).
func TestFig1PartialMCS(t *testing.T) {
	if v := verdict(t, mm.WMM, harness.Fig1PartialMCS(false)); v != core.OK {
		t.Errorf("rel/acq partial MCS must verify on WMM, got %v", v)
	}
	if v := verdict(t, mm.WMM, harness.Fig1PartialMCS(true)); v != core.ATViolation {
		t.Errorf("relaxed partial MCS must hang on WMM, got %v", v)
	}
	// The hang needs weak memory: SC and TSO forbid the reordering.
	if v := verdict(t, mm.SC, harness.Fig1PartialMCS(true)); v != core.OK {
		t.Errorf("relaxed partial MCS must verify on SC, got %v", v)
	}
	if v := verdict(t, mm.TSO, harness.Fig1PartialMCS(true)); v != core.OK {
		t.Errorf("relaxed partial MCS must verify on TSO, got %v", v)
	}
}

// TestFig3TTAS verifies the paper's TTAS example: mutual exclusion and
// await termination hold with acquire on the exchange and release on
// the unlock store, on every model.
func TestFig3TTAS(t *testing.T) {
	for _, model := range mm.All() {
		if v := verdict(t, model, harness.Fig3TTAS()); v != core.OK {
			t.Errorf("%s: TTAS must verify, got %v", model.Name(), v)
		}
	}
}

func TestCheckerStats(t *testing.T) {
	res := core.New(mm.WMM).Run(harness.AwaitSimple(vprog.Rel, vprog.Acq))
	if !res.Ok() {
		t.Fatalf("await-simple: %v", res)
	}
	if res.Stats.Executions == 0 {
		t.Error("expected at least one complete execution")
	}
	if res.Stats.Popped == 0 || res.Stats.Pushed == 0 {
		t.Error("expected exploration work to be recorded")
	}
}

// TestMaxEventsIsAnError: a graph that outgrows MaxEvents must end the
// run with an explicit error. FAA-atomicity executes two events; with
// room for one, dropping the oversized children silently (as push once
// did) would report "ok" over zero executions.
func TestMaxEventsIsAnError(t *testing.T) {
	c := core.New(mm.WMM)
	c.MaxEvents = 1
	res := c.Run(harness.FAAAtomicity())
	if res.Verdict != core.Error || res.Err == nil || !strings.Contains(res.Err.Error(), "exceeded MaxEvents") {
		t.Fatalf("MaxEvents=1 on a two-event program: %v (executions %d), want an explicit error", res, res.Stats.Executions)
	}
	c.MaxEvents = 2
	if res := c.Run(harness.FAAAtomicity()); !res.Ok() || res.Stats.Executions != 2 {
		t.Fatalf("MaxEvents=2 on a two-event program: %v (executions %d), want ok over 2", res, res.Stats.Executions)
	}
}

func TestCounterexampleRendering(t *testing.T) {
	res := core.New(mm.WMM).Run(harness.Fig1PartialMCS(true))
	if res.Verdict != core.ATViolation {
		t.Fatalf("want AT violation, got %v", res)
	}
	if res.Witness == nil {
		t.Fatal("AT violation must carry a witness graph")
	}
	txt := res.Witness.Render()
	if txt == "" {
		t.Fatal("empty witness rendering")
	}
	dot := res.Witness.DOT("fig1")
	if dot == "" {
		t.Fatal("empty DOT rendering")
	}
}
