package problem_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
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

// conflicting returns an unkeyed-by-spec problem whose program verifies
// under WMM and whose Build, once armed, stores the opposite verdict
// for the problem's key through peer — a second session on the same
// log, as a process that judged the problem differently would. The
// explorer's Build runs after decide's Lookup, so the run's own Put is
// the one that meets the contradiction.
func conflicting(t *testing.T, peer *store.Session) (problem.Problem, func()) {
	t.Helper()
	base := harness.SB(vprog.SC, vprog.SC, vprog.ModeNone)
	var armed atomic.Bool
	var key store.Key
	p := &vprog.Program{Name: base.Name, SymGroups: base.SymGroups,
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			if armed.CompareAndSwap(true, false) {
				if err := peer.Put(key, core.SafetyViolation, "peer"); err != nil {
					t.Errorf("peer Put: %v", err)
				}
			}
			return base.Build(env)
		}}
	pr := prob(p)
	key = pr.Key
	return pr, func() { armed.Store(true) }
}

// TestResolveConflictIsError: a verdict the store contradicts is an
// Error outcome carrying the conflict, with no witness, and not a
// persistence failure (Outcome.Err stays nil); an equal-key sibling
// shares it.
func TestResolveConflictIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	st, err := store.OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	peer, err := store.OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	pr, arm := conflicting(t, peer)
	arm()
	outs := problem.Resolve(context.Background(), problem.NewPool(1), []problem.Problem{pr, pr},
		problem.Knobs{Store: st, WorkersPerRun: 1}, false)
	for i, o := range outs {
		if o.Res.Verdict != core.Error || !errors.Is(o.Res.Err, store.ErrConflict) || o.Res.Witness != nil || o.Err != nil {
			t.Errorf("outcome %d: %v (%v), witness %v, Err %v; want an Error carrying the conflict and a nil Err",
				i, o.Res.Verdict, o.Res.Err, o.Res.Witness != nil, o.Err)
		}
	}
	if s := st.Stats(); s.Conflicts != 1 {
		t.Errorf("%d conflicts counted, want 1", s.Conflicts)
	}
}

// TestDeciderOrder: the suite reduction picks the outcome whose verdict
// outranks the rest — violation, Error, Undecided, Canceled, OK — and
// the lowest index among equals; -1 when every problem verified.
func TestDeciderOrder(t *testing.T) {
	for _, tc := range []struct {
		verdicts []core.Verdict
		want     int
	}{
		{nil, -1},
		{[]core.Verdict{core.OK, core.OK}, -1},
		{[]core.Verdict{core.OK, core.Canceled}, 1},
		{[]core.Verdict{core.Canceled, core.Undecided}, 1},
		{[]core.Verdict{core.Undecided, core.Error}, 1},
		{[]core.Verdict{core.Error, core.ATViolation}, 1},
		{[]core.Verdict{core.Undecided, core.SafetyViolation, core.Canceled}, 1},
		{[]core.Verdict{core.OK, core.ATViolation, core.SafetyViolation}, 1},
		{[]core.Verdict{core.Error, core.Error}, 0},
	} {
		outs := make([]problem.Outcome, len(tc.verdicts))
		for i, v := range tc.verdicts {
			outs[i].Res = &core.Result{Verdict: v}
		}
		if got := problem.Decider(outs); got != tc.want {
			t.Errorf("%v: Decider = %d, want %d", tc.verdicts, got, tc.want)
		}
	}
}
