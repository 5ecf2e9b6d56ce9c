package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/structs"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The symmetry differential bar: exploring only canonical orbit
// representatives must be invisible in every observable except the
// work counters — same verdict, and for violations a counterexample of
// the same shape (the canonical witness is a relabeling of some graph
// the unreduced run reports, so its event count matches even though
// thread names may not). Within a symmetry-on run the usual parallel
// bar holds too: worker count must not change the enumeration or the
// deterministic counterexample. Checker.NoSymmetry is the oracle
// switch — it bypasses canonicalization entirely, so these tests are
// an end-to-end check of the whole reduction, not of one layer.

func runSymAt(t *testing.T, model mm.Model, p *vprog.Program, workers int, nosym bool) *core.Result {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	c.NoSymmetry = nosym
	res := c.Run(p)
	if res.Verdict == core.Canceled || res.Verdict == core.Error {
		t.Fatalf("%s at %d workers (nosym=%v): unexpected %v: %v", p.Name, workers, nosym, res.Verdict, res.Err)
	}
	return res
}

// symDiffOne asserts the bar for one program: symmetry-on at 1, 2 and
// 4 workers against symmetry-off at 1 and 4.
func symDiffOne(t *testing.T, model mm.Model, p *vprog.Program) {
	t.Helper()
	on1 := runSymAt(t, model, p, 1, false)
	on2 := runSymAt(t, model, p, 2, false)
	on4 := runSymAt(t, model, p, 4, false)
	off1 := runSymAt(t, model, p, 1, true)
	off4 := runSymAt(t, model, p, 4, true)

	if on1.Verdict != on4.Verdict || on2.Verdict != on4.Verdict {
		t.Fatalf("%s: symmetry-on verdict is worker-count dependent: %v/%v/%v",
			p.Name, on1.Verdict, on2.Verdict, on4.Verdict)
	}
	if on4.Verdict != off4.Verdict || off1.Verdict != off4.Verdict {
		t.Fatalf("%s: symmetry changed the verdict: on %v, off %v/%v",
			p.Name, on4.Verdict, off1.Verdict, off4.Verdict)
	}

	if p.SymSpec() == nil {
		// No validated groups: the reduction must be a strict no-op, down
		// to the last counter.
		if on1.Stats != off1.Stats {
			t.Fatalf("%s: no symmetric groups, yet stats differ\non:  %+v\noff: %+v", p.Name, on1.Stats, off1.Stats)
		}
	} else if on4.Stats.Executions > off4.Stats.Executions || on4.Stats.Blocked > off4.Stats.Blocked {
		t.Fatalf("%s: reduction enumerated MORE than the full run\non:  %+v\noff: %+v", p.Name, on4.Stats, off4.Stats)
	}

	// Within symmetry-on, worker count must not change the enumeration.
	if !sameEnumeration(on2, on4) {
		t.Fatalf("%s: symmetry-on enumeration diverged across worker counts\non2: %+v\non4: %+v",
			p.Name, on2.Stats, on4.Stats)
	}
	if on4.Verdict == core.OK {
		if !sameEnumeration(on1, on4) {
			t.Fatalf("%s: symmetry-on enumeration diverged seq vs parallel\non1: %+v\non4: %+v",
				p.Name, on1.Stats, on4.Stats)
		}
		// Symmetry off, Blocked is schedule-independent too, and compared.
		if !sameEnumeration(off1, off4) {
			t.Fatalf("%s: symmetry-off enumeration diverged seq vs parallel\noff1: %+v\noff4: %+v",
				p.Name, off1.Stats, off4.Stats)
		}
		return
	}
	// Violations: the parallel runs explore to completion and must agree
	// on the deterministic canonical counterexample exactly; against the
	// unreduced run only the witness shape is comparable (the canonical
	// witness is a relabeling, and the two runs minimize over different
	// key spaces).
	if witnessKey(on2) != witnessKey(on4) || on2.Message != on4.Message {
		t.Fatalf("%s: symmetry-on counterexample is schedule-dependent: %q vs %q", p.Name, on2.Message, on4.Message)
	}
	if on4.Witness == nil || off4.Witness == nil {
		t.Fatalf("%s: violation without a witness (on %v, off %v)", p.Name, on4.Witness != nil, off4.Witness != nil)
	}
	if on4.Witness.NumEvents() != off4.Witness.NumEvents() {
		t.Fatalf("%s: canonical witness has %d events, unreduced run's has %d",
			p.Name, on4.Witness.NumEvents(), off4.Witness.NumEvents())
	}
	if err := on4.Witness.CheckInvariants(); err != nil {
		t.Fatalf("%s: canonical witness is malformed: %v", p.Name, err)
	}
}

// TestSymDifferentialLitmus: the full litmus corpus, both strengths.
// Litmus threads are pairwise distinct programs, so none declares
// symmetric groups — the suite proves the reduction stands down
// perfectly rather than perturbing asymmetric workloads.
func TestSymDifferentialLitmus(t *testing.T) {
	for _, name := range harness.LitmusNames() {
		for _, strong := range []bool{false, true} {
			symDiffOne(t, mm.WMM, harness.Litmus(name, strong))
		}
	}
}

// TestSymDifferentialLocks: the lock corpus at two and — for the
// decisive cases — three clients, including the buggy study locks
// whose violations exercise canonical-witness reporting.
func TestSymDifferentialLocks(t *testing.T) {
	for _, p := range harness.DiffLocks(testing.Short()) {
		symDiffOne(t, mm.WMM, p)
	}
	if !testing.Short() {
		mcs := locks.ByName("mcs")
		symDiffOne(t, mm.WMM, harness.MutexClient(mcs, mcs.DefaultSpec(), 3, 1))
	}
}

// TestSymReductionFactor: for the mcs client no complete execution is
// fixed by a nontrivial relabeling (the critical-section order always
// distinguishes the threads), so every orbit has exactly t! members and
// the reduction divides the execution count by exactly t!.
func TestSymReductionFactor(t *testing.T) {
	mcs := locks.ByName("mcs")
	p2 := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	on := runSymAt(t, mm.WMM, p2, 1, false)
	off := runSymAt(t, mm.WMM, p2, 1, true)
	if off.Stats.Executions != 2*on.Stats.Executions {
		t.Fatalf("mcs t=2: %d executions reduced, %d full — want an exact factor 2",
			on.Stats.Executions, off.Stats.Executions)
	}
	if on.Stats.CanonFast+on.Stats.CanonRefined == 0 || on.Stats.Canonicalized == 0 {
		t.Fatalf("mcs t=2: reduction ran but the canonicalization counters are empty: %+v", on.Stats)
	}
	if off.Stats.CanonFast+off.Stats.CanonRefined != 0 {
		t.Fatalf("mcs t=2: NoSymmetry run still canonicalized: %+v", off.Stats)
	}
	if testing.Short() {
		return
	}
	p3 := harness.MutexClient(mcs, mcs.DefaultSpec(), 3, 1)
	on3 := runSymAt(t, mm.WMM, p3, 4, false)
	off3 := runSymAt(t, mm.WMM, p3, 4, true)
	if off3.Stats.Executions != 6*on3.Stats.Executions {
		t.Fatalf("mcs t=3: %d executions reduced, %d full — want an exact factor 3! = 6",
			on3.Stats.Executions, off3.Stats.Executions)
	}
	if on3.Stats.Popped*2 > off3.Stats.Popped {
		t.Fatalf("mcs t=3: only %d of %d states pruned — the ≥2x state-space bar failed",
			off3.Stats.Popped-on3.Stats.Popped, off3.Stats.Popped)
	}
}

// seqlockT3Inversion names the one cell where the reduction costs states
// instead of saving them: the seqlock's two readers are a validated
// symmetric pair, yet canonical exploration pops 2.6x what the unreduced
// run does. Nobody has said why; ROADMAP item 1(d) is to root-cause it.
// Until then the counts are pinned, so a fix and a worsening both show.
const seqlockT3Inversion = "known anomaly seqlock-t3-inversion (ROADMAP 1(d))"

// TestSymTwinRows: one sequential run with the reduction and one without
// on every symmetric cell whose state-count ratio is worth knowing — the
// verdict must not move, the reduced run must not enumerate more
// executions, and outside the named anomaly it must not pop more states.
// The ratio is logged (go test -v).
func TestSymTwinRows(t *testing.T) {
	type counts struct{ popped, executions, duplicates int }
	of := func(r *core.Result) counts {
		return counts{r.Stats.Popped, r.Stats.Executions, r.Stats.Duplicates}
	}
	lock := func(name string, threads int) *vprog.Program {
		alg := locks.ByName(name)
		return harness.MutexClient(alg, alg.DefaultSpec(), threads, 1)
	}
	cell := func(w workload.Workload, threads int) *vprog.Program {
		return workload.Program(w, nil, threads)
	}
	for _, row := range []struct {
		name    string
		slow    bool
		prog    *vprog.Program
		on, off *counts // pinned exactly when set
	}{
		{name: "lock/spin", prog: lock("spin", 2)},
		{name: "lock/ttas", prog: lock("ttas", 2)},
		{name: "lock/ticket", prog: lock("ticket", 2)},
		{name: "lock/mcs", prog: lock("mcs", 2)},
		{name: "lock/clh", prog: lock("clh", 2)},
		{name: "lock/qspin", prog: lock("qspin", 2)},
		{name: "lock/mcs-t3", slow: true, prog: lock("mcs", 3)},
		{name: "structs/treiber", prog: cell(structs.Treiber(1), 2)},
		{name: "structs/msqueue-t4", slow: true, prog: cell(structs.MSQueue(1), 4)},
		{name: "structs/seqlock-t3", prog: cell(structs.SeqlockPair(1), 3),
			on: &counts{814, 3, 28}, off: &counts{310, 4, 0}},
	} {
		if row.slow && testing.Short() {
			continue
		}
		p := row.prog
		if p.SymSpec() == nil {
			t.Fatalf("%s: no validated symmetric group; the row measures nothing", row.name)
		}
		on, off := runSymAt(t, mm.WMM, p, 1, false), runSymAt(t, mm.WMM, p, 1, true)
		t.Logf("%-20s %6d pops on, %6d off: %.2fx", row.name, on.Stats.Popped, off.Stats.Popped,
			float64(off.Stats.Popped)/float64(on.Stats.Popped))
		if on.Verdict != off.Verdict {
			t.Errorf("%s: symmetry changed the verdict: on %v, off %v", row.name, on.Verdict, off.Verdict)
		}
		if on.Stats.Executions > off.Stats.Executions {
			t.Errorf("%s: %d executions reduced, %d full", row.name, on.Stats.Executions, off.Stats.Executions)
		}
		if row.on != nil {
			if of(on) != *row.on || of(off) != *row.off {
				t.Errorf("%s: %s moved (pops, executions, duplicates):\non  %+v, pinned %+v\noff %+v, pinned %+v\n"+
					"if this is the fix, delete the pin and the anomaly; if not, say why before re-pinning",
					row.name, seqlockT3Inversion, of(on), *row.on, of(off), *row.off)
			}
		} else if on.Stats.Popped > off.Stats.Popped {
			t.Errorf("%s: the reduction pops more states than it saves (%d on, %d off) — a second %s?",
				row.name, on.Stats.Popped, off.Stats.Popped, seqlockT3Inversion)
		}
	}
}

// relabeledClient is the core-level twin of the vprog unification test:
// the same symmetric two-thread client built with the replica ownership
// swapped. Both builds must be one verification problem end to end —
// one store key, one exploration.
func relabeledClient(swap bool) *vprog.Program {
	return &vprog.Program{
		Name:      "sym/relabeled",
		SymGroups: [][]int{{0, 1}},
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			oa, ob := 0, 1
			if swap {
				oa, ob = 1, 0
			}
			a := env.Var("node.a", 0).TagOwner(oa, "node")
			b := env.Var("node.b", 0).TagOwner(ob, "node")
			lock := env.Var("lock", 0).TagTid(0, 1)
			node := []*vprog.Var{a, b}
			if swap {
				node[0], node[1] = b, a
			}
			th := func(tid int) vprog.ThreadFunc {
				return func(m vprog.Mem) {
					m.Store(node[tid], 1, vprog.Rel)
					m.Xchg(lock, uint64(m.TID()+1), vprog.AcqRel)
					m.AwaitWhile(func() bool { return m.Load(lock, vprog.Acq) != uint64(m.TID()+1) })
				}
			}
			return []vprog.ThreadFunc{th(0), th(1)}, nil
		},
	}
}

// TestSymRelabeledProgramsUnify: thread-permuted builds of one
// symmetric program share the canonical fingerprint (hence the
// verdict-store key) and explore identical state spaces.
func TestSymRelabeledProgramsUnify(t *testing.T) {
	p1, p2 := relabeledClient(false), relabeledClient(true)
	if p1.Fingerprint128() != p2.Fingerprint128() {
		t.Fatal("relabeled builds produced different store keys")
	}
	r1 := runSymAt(t, mm.WMM, p1, 1, false)
	r2 := runSymAt(t, mm.WMM, p2, 1, false)
	if r1.Verdict != r2.Verdict || r1.Stats != r2.Stats {
		t.Fatalf("relabeled builds explored different spaces:\np1: %v %+v\np2: %v %+v",
			r1.Verdict, r1.Stats, r2.Verdict, r2.Stats)
	}
}

// TestSymSegmentedExact: a symmetric run segmented by graph budgets and
// driven through the checkpoint codec must reproduce the uninterrupted
// reduced run counter for counter. (The mcs t=2 client in ckptCorpus
// already runs symmetric under budgets 1/7/50 in the general segmented
// tests; this pins the property explicitly with the codec in the loop.)
func TestSymSegmentedExact(t *testing.T) {
	mcs := locks.ByName("mcs")
	p := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	base := runSymAt(t, mm.WMM, p, 1, false)
	if base.Stats.CanonFast+base.Stats.CanonRefined == 0 {
		t.Fatal("baseline run was not reduced; the segmented test would be vacuous")
	}
	for _, bg := range []int64{1, 7, 50} {
		res, _ := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: bg}, true)
		if res.Verdict != base.Verdict || res.Stats != base.Stats {
			t.Fatalf("budget=%d: segmented symmetric run diverged\nsegmented:     %v %+v\nuninterrupted: %v %+v",
				bg, res.Verdict, res.Stats, base.Verdict, base.Stats)
		}
	}
}

// TestSymCheckpointCompatibility: a checkpoint records whether its
// visited keys are canonical, the codec round-trips the flag, and a
// resume under the other setting is refused — the two key spaces are
// not comparable, so silently mixing them could skip states.
func TestSymCheckpointCompatibility(t *testing.T) {
	mcs := locks.ByName("mcs")
	p := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	interrupted := func(nosym bool) *core.Checkpoint {
		c := core.New(mm.WMM)
		c.NoSymmetry = nosym
		c.Budget = core.Budget{MaxGraphs: 30} // of 56 states with symmetry on
		res := c.Run(p)
		if res.Verdict != core.Undecided || res.Checkpoint == nil {
			t.Fatalf("nosym=%v: expected a budget interrupt, got %v", nosym, res.Verdict)
		}
		return res.Checkpoint
	}

	for _, nosym := range []bool{false, true} {
		ck := interrupted(nosym)
		if ck.Sym != !nosym {
			t.Fatalf("nosym=%v: checkpoint records Sym=%v", nosym, ck.Sym)
		}
		dec, err := core.DecodeCheckpoint(ck.Encode())
		if err != nil {
			t.Fatalf("nosym=%v: round-trip: %v", nosym, err)
		}
		if dec.Sym != ck.Sym {
			t.Fatalf("nosym=%v: codec lost the Sym flag", nosym)
		}

		// Resuming under the opposite setting must be an Error.
		c := core.New(mm.WMM)
		c.NoSymmetry = !nosym
		c.Resume = dec
		if res := c.Run(p); res.Verdict != core.Error {
			t.Fatalf("nosym=%v: resume under flipped symmetry: %v, want error", nosym, res.Verdict)
		}
		// The matching resume completes the run.
		c = core.New(mm.WMM)
		c.NoSymmetry = nosym
		c.Resume = dec
		if res := c.Run(p); res.Verdict != core.OK {
			t.Fatalf("nosym=%v: matching resume: %v, want ok", nosym, res.Verdict)
		}
	}
}
