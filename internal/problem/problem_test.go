package problem_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/problem"
	"repro/internal/store"
	"repro/internal/vprog"
)

// prob keys p by its fingerprint alone, as callers without a spec do.
func prob(p *vprog.Program) problem.Problem {
	return problem.Problem{Model: mm.WMM, Prog: p, Name: p.Name, Key: problem.Key(mm.WMM, nil, p)}
}

// TestResolveOutcomes pins what the outcomes say, which is all the
// optimizer's accounting reads: an equal-key problem is Deduped onto one
// run, a stored verdict is FromStore, a stored failure under fail-fast
// runs nothing, and a problem fail-fast kept from running — by a
// stored failure or out of the pool — is ErrNotStarted.
func TestResolveOutcomes(t *testing.T) {
	weak, strong := harness.SB(vprog.Rlx, vprog.Rlx, vprog.ModeNone), harness.SB(vprog.SC, vprog.SC, vprog.ModeNone)
	st := store.NewMemory()
	k := problem.Knobs{Store: st, WorkersPerRun: 1}
	pool := problem.NewPool(1)

	outs := problem.Resolve(context.Background(), pool, []problem.Problem{prob(strong), prob(weak), prob(strong)}, k, false)
	if outs[0].Res.Verdict != core.OK || outs[1].Res.Verdict != core.SafetyViolation {
		t.Fatalf("verdicts %v, %v; want ok and a safety violation", outs[0].Res.Verdict, outs[1].Res.Verdict)
	}
	if outs[0].Deduped || !outs[2].Deduped || outs[2].Res.Verdict != core.OK {
		t.Errorf("equal keys: deduped %v/%v, verdict %v; want the second served by the first's run", outs[0].Deduped, outs[2].Deduped, outs[2].Res.Verdict)
	}
	if st.Len() != 2 {
		t.Errorf("session holds %d verdicts, want 2", st.Len())
	}

	outs = problem.Resolve(context.Background(), pool, []problem.Problem{prob(strong), prob(weak)}, k, true)
	for i, o := range outs {
		if !o.FromStore || o.Deduped {
			t.Errorf("second call, problem %d: from store %v, deduped %v; want a store hit", i, o.FromStore, o.Deduped)
		}
	}

	// A stored failure fails the call before any run: the unknown
	// problem is canceled, not started and not deduped.
	fresh := harness.MP(vprog.SC, vprog.SC)
	outs = problem.Resolve(context.Background(), pool, []problem.Problem{prob(fresh), prob(weak)}, k, true)
	if o := outs[0]; o.FromStore || o.Deduped || o.Res.Verdict != core.Canceled || o.Res.Err != problem.ErrNotStarted {
		t.Errorf("beside a stored failure: %+v, %v; want not started", o, o.Res)
	}

	// Without a store the failing run comes first and keeps its sibling
	// out of the one slot.
	outs = problem.Resolve(context.Background(), problem.NewPool(1), []problem.Problem{prob(weak), prob(fresh)}, problem.Knobs{WorkersPerRun: 1}, true)
	if outs[0].Res.Verdict != core.SafetyViolation || outs[1].Res.Err != problem.ErrNotStarted {
		t.Errorf("fail-fast: %v then %v (%v); want a violation, then not started", outs[0].Res.Verdict, outs[1].Res.Verdict, outs[1].Res.Err)
	}
}
