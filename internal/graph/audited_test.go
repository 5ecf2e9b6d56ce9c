package graph_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/workload"
)

// tally is what the armed runs of a pass have seen, audit by audit:
// each audit's counters and the first finding it reported.
type tally struct {
	sig           graph.SigCounters // signature states by how they were carried over
	cohDelta      uint64            // coherence flags decided by delta
	graphs, flags int               // graphs and coherence flags the incremental audit checked
	derived       int               // restricted derivations compared with BuildRels
	mem           graph.MemCounters // slabs and headers reused while poisoned

	incremental, restrict, poison string // first findings, "" while there is none
}

// note keeps the first finding of an audit.
func note(finding *string, id, bad string) {
	if bad != "" && *finding == "" {
		*finding = id + ": " + bad
	}
}

// run explores once with AuditIncremental armed and, with poison, also
// CrossCheckRestrict and PoisonOnRelease, and adds what the audits saw
// and found to tl.
func (tl *tally) run(id string, poison bool, explore func() *core.Result) *core.Result {
	incremental := graph.AuditIncremental(true)
	defer graph.AuditIncremental(false)
	restrict := func() (int, string) { return 0, "" }
	if poison {
		restrict = graph.CrossCheckRestrict(true)
		defer graph.CrossCheckRestrict(false)
		graph.PoisonOnRelease(true)
		defer graph.PoisonOnRelease(false)
	}
	res := explore()
	graphs, flags, mismatch := incremental()
	note(&tl.incremental, id, mismatch)
	derived, differs := restrict()
	if differs != "" {
		note(&tl.restrict, id, "a restricted derivation differs from BuildRels: "+differs)
	}
	tl.sig.Add(res.Sig)
	tl.cohDelta += res.Acyclic.CohDelta
	tl.graphs += graphs
	tl.flags += flags
	tl.derived += derived
	if poison {
		tl.mem.Add(res.Mem)
	}
	return res
}

// pass is the one audited pass over harness.Corpus (the corpus of
// internal/core's audited pass too) of this test binary: every
// configuration — a cell under a model (a Big cell under WMM only),
// symmetry on and, except for the Big cells, off, at 1, 2 and 4
// workers — explored once clean and once with every check of this
// package's export_test.go armed together:
//   - PoisonOnRelease fills every retired slab with ones and drops the
//     slices of every retired header, so a state read after its release,
//     or released while a witness, a checkpoint or a revisit still needs
//     it, changes what differ compares with the clean twin, or panics;
//   - AuditIncremental folds every signature state a pop inherits or
//     extends from its parent again from the thread's whole row, and
//     rescans eco against hb for every coherence flag decided by delta;
//   - CrossCheckRestrict compares every relation set a revisit derives
//     out of its parent's with BuildRels: a revisit item pins its parent
//     until the child, possibly on a thief, derives from it, and a parent
//     released before that reads as all-ones here.
//
// The pass runs for whichever of the tests below asks first; each test
// then judges one audit by its findings and its counters, and fails if
// the audit saw nothing.
type pass struct {
	tally
	clean, armed time.Duration
}

var (
	passOnce sync.Once
	passDone *pass
)

// auditedPass returns the pass, running it first if no test has yet. A pass
// that stops early fails the test that ran it and every later one.
func auditedPass(t *testing.T) *pass {
	t.Helper()
	passOnce.Do(func() { passDone = runPass(t) })
	if passDone == nil {
		t.Fatal("the audited pass over the corpus stopped early: see the first test that asked for it")
	}
	return passDone
}

func runPass(t *testing.T) *pass {
	t.Helper()
	ps := &pass{}
	for _, cell := range harness.Corpus(testing.Short()) {
		models := append(mm.All(), mm.Ablations()...)
		if cell.Big {
			models = []mm.Model{mm.WMM}
		}
		for _, m := range models {
			for _, nosym := range []bool{false, true} {
				if nosym && cell.Big {
					continue
				}
				for _, workers := range []int{1, 2, 4} {
					id := fmt.Sprintf("%s under %s at %d workers (nosym=%v)", cell.Program.Name, m.Name(), workers, nosym)
					start := time.Now()
					twin := observe(t, id, runCell(m, cell.Program, workers, nosym))
					mid := time.Now()
					res := ps.run(id, true, func() *core.Result { return runCell(m, cell.Program, workers, nosym) })
					note(&ps.poison, id, differ(twin, observe(t, id, res), workers))
					ps.clean, ps.armed = ps.clean+mid.Sub(start), ps.armed+time.Since(mid)
				}
			}
		}
	}
	return ps
}

// TestAuditedCorpus runs the audited pass, fails on any audit's
// finding — the tests below judge one audit each, its counters
// included — and reports the split between the clean and the armed
// runs. Outside -short, msqueue t=3 runs once more at one worker with
// the incremental audit alone and pins its counts.
func TestAuditedCorpus(t *testing.T) {
	ps := auditedPass(t)
	for _, finding := range []string{ps.incremental, ps.restrict, ps.poison} {
		if finding != "" {
			t.Error(finding)
		}
	}
	t.Logf("clean pass %v, armed pass %v", ps.clean.Round(time.Millisecond), ps.armed.Round(time.Millisecond))

	t.Run("msqueue-t3", func(t *testing.T) {
		if testing.Short() {
			t.Skip("msqueue t=3 takes seconds")
		}
		var tl tally
		p := workload.Program(workload.ByName("structs/msqueue"), nil, 3)
		res := tl.run(p.Name, false, func() *core.Result { return runCell(mm.WMM, p, 1, false) })
		if tl.incremental != "" {
			t.Fatal(tl.incremental)
		}
		if !res.Ok() {
			t.Fatalf("%s: %v", p.Name, res)
		}
		if s := res.Stats; s.Executions != 32155 || s.Popped != 746747 || s.Revisits != 189182 || s.Duplicates != 189438 || s.Filtered != 770045 {
			t.Errorf("%s at one worker: %d executions, %d popped, %d revisits, %d duplicates, %d filtered; pinned 32155, 746747, 189182, 189438, 770045",
				p.Name, s.Executions, s.Popped, s.Revisits, s.Duplicates, s.Filtered)
		}
		if tl.graphs == 0 || tl.flags == 0 {
			t.Errorf("%s: %d graphs and %d coherence flags audited", p.Name, tl.graphs, tl.flags)
		}
	})
}

// TestIncrementalAuditCorpus: every signature state a popped graph of
// the pass inherited or extended from its parent folds again to the
// same value from the thread's whole row, and every coherence flag
// decided from a one-event delta agrees with a full scan of eco against
// hb; each carry-over path ran.
func TestIncrementalAuditCorpus(t *testing.T) {
	ps := auditedPass(t)
	if ps.incremental != "" {
		t.Fatal(ps.incremental)
	}
	if ps.sig.Inherited == 0 || ps.sig.Extended == 0 || ps.sig.Scratch == 0 || ps.cohDelta == 0 || ps.graphs == 0 || ps.flags == 0 {
		t.Fatalf("a carry-over path never ran: signatures %+v, %d coherence flags by delta; %d graphs and %d flags audited",
			ps.sig, ps.cohDelta, ps.graphs, ps.flags)
	}
	t.Logf("signatures: %d inherited, %d extended, %d from scratch over %d audited graphs; %d coherence flags by delta, %d audited, all agree",
		ps.sig.Inherited, ps.sig.Extended, ps.sig.Scratch, ps.graphs, ps.cohDelta, ps.flags)
}

// TestPoisonCorpus: every poisoned run of the pass repeats its clean
// twin, and states were recycled — outside -short, by thieves too.
func TestPoisonCorpus(t *testing.T) {
	ps := auditedPass(t)
	if ps.poison != "" {
		t.Fatal(ps.poison)
	}
	if ps.mem.SlabHits == 0 || ps.mem.HeaderHits == 0 {
		t.Fatalf("nothing was recycled under poison, so nothing was tested: %+v", ps.mem)
	}
	if !testing.Short() && ps.mem.SlabThief+ps.mem.HeaderThief == 0 {
		t.Errorf("no state was ever retired by a thief: %+v", ps.mem)
	}
	t.Logf("poisoned free lists: %+v", ps.mem)
}

// TestRestrictDifferential: every relation set a revisit of the pass
// derived out of its parent's (Rels.Restrict, reached through RelsOf by
// the revisits that survive dedup) equals BuildRels of the same graph,
// over at least 1,000 derivations.
func TestRestrictDifferential(t *testing.T) {
	ps := auditedPass(t)
	if ps.restrict != "" {
		t.Fatal(ps.restrict)
	}
	if ps.derived < 1000 {
		t.Fatalf("only %d restricted derivations were compared: the hint is not wired", ps.derived)
	}
	t.Logf("%d restricted derivations against BuildRels", ps.derived)
}
