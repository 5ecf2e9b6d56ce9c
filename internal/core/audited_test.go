package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/vprog"
)

var allModels = append(mm.All(), mm.Ablations()...)

// The cells are harness.Corpus — the suite corpus plus what the suite
// leaves out on purpose, in the order of the pin file — under all four
// models, the three-thread cells under WMM only.
func cellModels(c harness.CorpusCell) []mm.Model {
	if c.Big {
		return []mm.Model{mm.WMM}
	}
	return allModels
}

// run explores p under model at the given worker count, with thread
// symmetry reduction off when nosym is set, and fails the test on a run
// that ends canceled or in an error.
func run(t *testing.T, model mm.Model, p *vprog.Program, workers int, nosym bool) *core.Result {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	c.NoSymmetry = nosym
	res := c.Run(p)
	if res.Verdict == core.Canceled || res.Verdict == core.Error {
		t.Fatalf("%s under %s at %d workers (nosym=%v): unexpected %v: %v", p.Name, model.Name(), workers, nosym, res.Verdict, res.Err)
	}
	return res
}

// sameEnumeration is the one comparison of two complete runs of one
// problem across worker counts or segmentations. Executions must always
// agree: AMC's exactly-once guarantee, arbitrated by the visited set's
// atomic insert-if-absent. Blocked must agree only when both runs were
// sequential — on more than one worker it is a traversal counter, with
// symmetry reduction or without (see the core.Stats doc), and comparing
// it would be a flaky test.
func sameEnumeration(a, b *core.Result) bool {
	if a.Stats.Executions != b.Stats.Executions {
		return false
	}
	return a.Sched.Workers > 1 || b.Sched.Workers > 1 || a.Stats.Blocked == b.Stats.Blocked
}

// witnessKey fingerprints a counterexample graph (nil-safe).
func witnessKey(r *core.Result) [2]uint64 {
	if r.Witness == nil {
		return [2]uint64{}
	}
	return r.Witness.Fingerprint128()
}

// The birth-filter pins: rejecting rf/mo candidates against the
// parent's relations before they are built must be invisible in every
// observable except the traversal counters. For one PR the explorer kept
// a generate-then-test reference that built and pushed everything the
// filter skips and let the pop's Model.Consistent kill it; the two modes
// agreed on every cell of the corpus, at 1, 2 and 4 workers, and every
// graph the filter skipped was rejected by all four models. The
// reference is gone; what it confirmed is pinned in
// testdata/filter_pins.txt (verdict, Executions and, sequentially, the
// Filtered count of every cell), and graph's
// TestAdmitIsNecessary/TestAdmitCases keep checking Admit against
// relations built from scratch.

var updateFilterPins = flag.Bool("update-filter-pins", false, "rewrite testdata/filter_pins.txt from this build's sequential runs")

const filterPinFile = "testdata/filter_pins.txt"

// writeFilterPins rewrites the pin file from unaudited sequential runs
// of the full corpus.
func writeFilterPins(t *testing.T) {
	if testing.Short() {
		t.Fatal("-update-filter-pins needs the full corpus: run without -short")
	}
	var b strings.Builder
	for _, cell := range harness.Corpus(false) {
		for _, model := range cellModels(cell) {
			res := run(t, model, cell.Program, 1, false)
			fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%d\n", cell.Program.Name, model.Name(), res.Verdict, res.Stats.Executions, res.Stats.Filtered)
		}
	}
	if err := os.WriteFile(filterPinFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pass is the one audited pass over harness.Corpus of this test
// binary. A row is one cell under one of its models, explored with
// symmetry reduction on and (except for a Big cell) off at 1, 2 and 4
// workers, every run with
// every check this package's export_test.go can arm and graph's
// acyclicity oracle armed together:
//   - AuditBirthRule replays every child the birth rule rejects, which
//     must collapse, and builds and replays the revisits its write would
//     have seeded, which must collapse too; it throws them away again and
//     restores the worker's counters, so the run counts what an
//     unaudited one does;
//   - AuditReplayMemo replays every memo hit afresh and compares it with
//     the entry served, field for field;
//   - AuditDedupKey holds every raw structural key of a run against the
//     string fingerprint of the state it keys: one key must stand for
//     one string, and one string for one key, which is what makes the
//     hashed visited set an exact dedup;
//   - graph.CrossCheckAcyclic re-runs the transitive-closure oracle on
//     every closure-free decision of the acyclicity engine (Kahn passes,
//     order-seeded fast paths, shortcuts from the order state alone) and
//     panics on disagreement.
//
// Every run with symmetry on is held to the pin file: its verdict, its
// executions (sequentially, or of a complete run at any worker count)
// and, sequentially, the candidates the birth filter rejected. At one
// worker every two-thread cell also runs with DisableDedup: the verdict
// must hold, and a run explored to completion must pop no fewer states
// without the visited set. Then the runs of a row are compared with
// each other (compareRow).
//
// The pass runs for whichever of the tests below asks first; each test
// then judges one check by its first finding and its counters, and
// fails if the check saw nothing. With -update-filter-pins the pin file
// is rewritten first.
type pass struct {
	birth, memo, pins, dedup string // first findings, "" while there is none

	seeds, revisits, collapsed int    // birth rule
	hits                       int    // memo hits audited
	filtered                   int    // candidates rejected at birth
	litmusChecks, lockChecks   uint64 // acyclicity checks on litmus and lock-client cells
	checks                     uint64 // acyclicity checks on the whole corpus
	saved                      int    // pops the visited set saved
	elapsed, dedupTime         time.Duration

	all   rowChecks             // the key audit and the row comparisons over the corpus
	kinds map[string]*rowChecks // the same over the cells of each kind, by cellKind
}

// rowChecks are the findings and counters of the key audit and of the
// row comparisons (compareRow) over a set of rows.
type rowChecks struct {
	key, parallel, sym string // first findings, "" while there is none

	keys                    int // raw keys audited against their strings
	enumerations, witnesses int // complete enumerations and parallel witnesses compared across worker counts
	symCompared             int // rows compared with symmetry on and off
	symRows                 int // of them, rows of a program with symmetric groups
	symSaved                int // pops the reduction saved on complete sequential runs
}

// cellKind names the kind of a cell the judges also hold on its own —
// "litmus", "locks" (the mutex clients) or "queue path" (the qspinlock
// queue-path litmus) — or returns "".
func cellKind(p *vprog.Program) string {
	switch {
	case p.Name == "litmus/qspin-queue-path":
		return "queue path"
	case strings.HasPrefix(p.Name, "litmus/"):
		return "litmus"
	case strings.HasPrefix(p.Name, "client/mutex/"):
		return "locks"
	}
	return ""
}

var (
	passOnce sync.Once
	passDone *pass
)

// auditedPass returns the pass, running it first if no test has yet. A pass
// that stops early fails the test that ran it and every later one.
func auditedPass(t *testing.T) *pass {
	t.Helper()
	passOnce.Do(func() {
		if *updateFilterPins {
			writeFilterPins(t)
		}
		passDone = runPass(t)
	})
	if passDone == nil {
		t.Fatal("the audited pass over the corpus stopped early: see the first test that asked for it")
	}
	return passDone
}

// note keeps the first finding of a check.
func note(finding *string, id, bad string) {
	if bad != "" && *finding == "" {
		*finding = id + ": " + bad
	}
}

// workerCounts are the worker counts of a row, in the order of its runs.
var workerCounts = []int{1, 2, 4}

func runPass(t *testing.T) *pass {
	t.Helper()
	data, err := os.ReadFile(filterPinFile)
	if err != nil {
		t.Fatal(err)
	}
	pins := strings.Split(strings.TrimSpace(string(data)), "\n")

	birth := core.AuditBirthRule(true)
	defer core.AuditBirthRule(false)
	memo := core.AuditReplayMemo(true)
	defer core.AuditReplayMemo(false)
	key := core.AuditDedupKey(true)
	defer core.AuditDedupKey(false)
	graph.CrossCheckAcyclic = true
	defer func() { graph.CrossCheckAcyclic = false }()

	ps := &pass{kinds: map[string]*rowChecks{"litmus": {}, "locks": {}, "queue path": {}}}
	start := time.Now()
	var rcs []*rowChecks // the corpus's and the current cell kind's
	keysSeen := 0
	// explore runs one configuration and notes the first finding of the
	// birth, memo and key audits (the acyclicity oracle panics on its own).
	explore := func(id string, p *vprog.Program, c func() *core.Result) *core.Result {
		res := c()
		_, _, failure := birth()
		note(&ps.birth, id, failure)
		_, failure = memo()
		note(&ps.memo, id, failure)
		keys, failure := key()
		for _, rc := range rcs {
			note(&rc.key, id, failure)
			rc.keys += keys - keysSeen
		}
		keysSeen = keys
		ps.collapsed += res.Stats.Collapsed
		ps.checks += res.Acyclic.Checks
		switch {
		case strings.HasPrefix(p.Name, "litmus/"):
			ps.litmusChecks += res.Acyclic.Checks
		case strings.HasPrefix(p.Name, "client/mutex/"):
			ps.lockChecks += res.Acyclic.Checks
		}
		return res
	}
	for _, cell := range harness.Corpus(testing.Short()) {
		p := cell.Program
		for _, model := range cellModels(cell) {
			if len(pins) == 0 {
				t.Fatalf("%s has no line for %s under %s", filterPinFile, p.Name, model.Name())
			}
			f := strings.Split(pins[0], "\t")
			pins = pins[1:]
			if len(f) != 5 || f[0] != p.Name || f[1] != model.Name() {
				t.Fatalf("%s is out of step with the corpus: line %q, cell %s under %s", filterPinFile, f, p.Name, model.Name())
			}
			rcs = []*rowChecks{&ps.all}
			if rc := ps.kinds[cellKind(p)]; rc != nil {
				rcs = append(rcs, rc)
			}
			var row [2][]*core.Result // symmetry on, off; by workerCounts
			for s, nosym := range []bool{false, true} {
				if nosym && cell.Big {
					// A three-thread cell is affordable because of its
					// orbits: treiber t=3 pops 30,831 states with them and
					// 138,302 without.
					continue
				}
				for _, workers := range workerCounts {
					id := fmt.Sprintf("%s under %s at %d workers", p.Name, model.Name(), workers)
					if nosym {
						id += " without symmetry"
					}
					res := explore(id, p, func() *core.Result { return run(t, model, p, workers, nosym) })
					row[s] = append(row[s], res)
					if nosym {
						continue
					}
					if got := res.Verdict.String(); got != f[2] {
						note(&ps.pins, id, fmt.Sprintf("verdict %q, pinned %q", got, f[2]))
					}
					// A sequential violation run stops at its first witness, so its
					// counts are pinned sequentially only; complete runs count the
					// same executions at any worker count.
					if got := fmt.Sprint(res.Stats.Executions); got != f[3] && (workers == 1 || res.Ok()) {
						note(&ps.pins, id, fmt.Sprintf("%s executions, pinned %s", got, f[3]))
					}
					// Filtered is a traversal counter: exact only where the
					// schedule is fixed.
					if got := fmt.Sprint(res.Stats.Filtered); workers == 1 && got != f[4] {
						note(&ps.pins, id, fmt.Sprintf("%s candidates filtered at birth, pinned %s", got, f[4]))
					}
					ps.filtered += res.Stats.Filtered
					if workers > 1 || cell.Big {
						continue
					}
					// Without the visited set a three-thread cell may not finish
					// (treiber t=3 is Undecided at 2,000,000 pops).
					t0 := time.Now()
					without := explore(id+" without dedup", p, func() *core.Result {
						c := core.New(model)
						c.DisableDedup = true
						return c.Run(p)
					})
					ps.dedupTime += time.Since(t0)
					if without.Verdict != res.Verdict {
						note(&ps.dedup, id, fmt.Sprintf("verdict %v without the visited set, %v with it", without.Verdict, res.Verdict))
					}
					// A violation run stops at its first witness, which a different
					// traversal may reach sooner: only complete runs compare.
					if res.Ok() && without.Ok() {
						if without.Stats.Popped < res.Stats.Popped {
							note(&ps.dedup, id, fmt.Sprintf("%d pops without the visited set, %d with it", without.Stats.Popped, res.Stats.Popped))
						} else {
							ps.saved += without.Stats.Popped - res.Stats.Popped
						}
					}
				}
			}
			for _, rc := range rcs {
				rc.compareRow(fmt.Sprintf("%s under %s", p.Name, model.Name()), p, row)
			}
		}
	}
	if !testing.Short() && len(pins) != 0 {
		t.Fatalf("%s has %d lines the corpus does not", filterPinFile, len(pins))
	}
	ps.seeds, ps.revisits, _ = birth()
	ps.hits, _ = memo()
	ps.elapsed = time.Since(start)
	return ps
}

// compareRow compares the runs of one row: row[0] with symmetry on,
// row[1] off (nil for a Big cell), each at the worker counts of
// workerCounts.
//
// Across worker counts (rc.parallel): a work-graph exploration at any
// worker count must be observably identical to the sequential DFS. A
// complete run has the same verdict and enumeration (sameEnumeration);
// its traversal counters (Popped, Revisits, ...) are deliberately not
// compared: equal-fingerprint states carry different stamp histories,
// the revisit restriction depends on stamp order, and which
// representative a parallel schedule expands is timing dependent (see
// the core.Stats doc). A violation ends a parallel run, which then
// reports the one-worker rerun from the root: the sequential run's
// verdict, counterexample, message and counters, field for field.
//
// Across symmetry (rc.sym): exploring only canonical orbit
// representatives must be invisible in every observable except the
// work counters. The verdict may not move; a program with no validated
// groups explores identically, down to the last counter; with groups,
// a complete reduced run enumerates no more executions and blocked
// states, and, sequentially, pops no more states; a canonical
// counterexample is well formed. (A violating run stops at its first
// counterexample, which the reduction may reach by another path: its
// counters and the size of its witness are a partial search's.)
func (rc *rowChecks) compareRow(id string, p *vprog.Program, row [2][]*core.Result) {
	for s, rs := range row {
		if rs == nil {
			continue
		}
		rid := id
		if s == 1 {
			rid += " without symmetry"
		}
		seq, par2, par4 := rs[0], rs[1], rs[2]
		switch {
		case seq.Verdict != par2.Verdict || par2.Verdict != par4.Verdict:
			note(&rc.parallel, rid, fmt.Sprintf("verdicts %v/%v/%v at 1/2/4 workers", seq.Verdict, par2.Verdict, par4.Verdict))
		case !sameEnumeration(par2, par4):
			note(&rc.parallel, rid, fmt.Sprintf("enumeration diverged across worker counts\npar2: %+v\npar4: %+v", par2.Stats, par4.Stats))
		case seq.Verdict == core.OK:
			// Complete exploration everywhere: the enumeration must match
			// the sequential run.
			if !sameEnumeration(seq, par4) {
				note(&rc.parallel, rid, fmt.Sprintf("exploration diverged\nseq:  %+v\npar4: %+v", seq.Stats, par4.Stats))
			}
			rc.enumerations++
		default:
			// Violations: every parallel run reports the one-worker rerun.
			for i, par := range rs[1:] {
				switch {
				case witnessKey(par) != witnessKey(seq):
					note(&rc.parallel, rid, fmt.Sprintf("the counterexample at %d workers is not the sequential one", workerCounts[i+1]))
				case par.Message != seq.Message:
					note(&rc.parallel, rid, fmt.Sprintf("message at %d workers %q, sequentially %q", workerCounts[i+1], par.Message, seq.Message))
				case par.Stats != seq.Stats:
					note(&rc.parallel, rid, fmt.Sprintf("counters at %d workers are not the sequential ones\nseq: %+v\npar: %+v", workerCounts[i+1], seq.Stats, par.Stats))
				}
			}
			rc.witnesses++
		}
	}

	on, off := row[0], row[1]
	if off == nil {
		return
	}
	rc.symCompared++
	for i, workers := range workerCounts {
		if on[i].Verdict != off[i].Verdict {
			note(&rc.sym, id, fmt.Sprintf("at %d workers symmetry changed the verdict: on %v, off %v", workers, on[i].Verdict, off[i].Verdict))
		}
	}
	if p.SymSpec() == nil {
		if on[0].Stats != off[0].Stats {
			note(&rc.sym, id, fmt.Sprintf("no symmetric groups, yet the sequential stats differ\non:  %+v\noff: %+v", on[0].Stats, off[0].Stats))
		}
	} else {
		rc.symRows++
		if on4, off4 := on[2], off[2]; on4.Ok() && (on4.Stats.Executions > off4.Stats.Executions || on4.Stats.Blocked > off4.Stats.Blocked) {
			note(&rc.sym, id, fmt.Sprintf("the reduction enumerated more than the full run at 4 workers\non:  %+v\noff: %+v", on4.Stats, off4.Stats))
		}
		if on1, off1 := on[0], off[0]; on1.Ok() && off1.Ok() {
			if on1.Stats.Popped > off1.Stats.Popped {
				note(&rc.sym, id, fmt.Sprintf("the reduction pops more states than it saves (%d on, %d off) — a second %s?",
					on1.Stats.Popped, off1.Stats.Popped, seqlockT3Inversion))
			} else {
				rc.symSaved += off1.Stats.Popped - on1.Stats.Popped
			}
		}
	}
	if on4, off4 := on[2], off[2]; on4.Verdict != core.OK {
		switch {
		case on4.Witness == nil || off4.Witness == nil:
			note(&rc.sym, id, fmt.Sprintf("violation without a witness (on %v, off %v)", on4.Witness != nil, off4.Witness != nil))
		default:
			if err := on4.Witness.CheckInvariants(); err != nil {
				note(&rc.sym, id, fmt.Sprintf("canonical witness is malformed: %v", err))
			}
			if err := off4.Witness.CheckInvariants(); err != nil {
				note(&rc.sym, id, fmt.Sprintf("unreduced witness is malformed: %v", err))
			}
		}
	}
}

// TestAuditedCorpus runs the audited pass, fails on any check's
// finding — the tests below judge one check each, its counters
// included — and reports the pass's time.
func TestAuditedCorpus(t *testing.T) {
	ps := auditedPass(t)
	for _, finding := range []string{ps.birth, ps.memo, ps.all.key, ps.pins, ps.dedup, ps.all.parallel, ps.all.sym} {
		if finding != "" {
			t.Error(finding)
		}
	}
	t.Logf("%v, %v of it without dedup", ps.elapsed.Round(time.Millisecond), ps.dedupTime.Round(time.Millisecond))
}

// TestBirthRuleAudit: a value-changing write that completes an await
// after read-only failed iterations is counted as collapsed when it is
// built, and neither pushed nor allowed to seed revisits (see
// explorer.pushWrite). That is sound only if every one of those revisits
// would itself have been collapsed at its pop: in the pass each
// rejected seed's revisits were built and replayed anyway, and each
// collapsed.
func TestBirthRuleAudit(t *testing.T) {
	ps := auditedPass(t)
	if ps.birth != "" {
		t.Fatal(ps.birth)
	}
	if ps.seeds == 0 || ps.revisits == 0 {
		t.Fatalf("%d seeds rejected at birth, %d of their revisits replayed: the rule is not wired", ps.seeds, ps.revisits)
	}
	if ps.collapsed < ps.seeds {
		t.Fatalf("%d seeds rejected at birth, but Stats.Collapsed sums to %d", ps.seeds, ps.collapsed)
	}
	t.Logf("%d seeds rejected at birth, %d revisits replayed, every one collapsed", ps.seeds, ps.revisits)
}

// TestMemoAuditCorpus: every replay the pass served from a memo equals
// the replay run afresh, field for field.
func TestMemoAuditCorpus(t *testing.T) {
	ps := auditedPass(t)
	if ps.memo != "" {
		t.Fatal(ps.memo)
	}
	if ps.hits == 0 {
		t.Fatal("no replay was served from a memo, so nothing was audited")
	}
	t.Logf("%d memo hits audited", ps.hits)
}

// TestFilterDifferential: every run of the pass matches its line of the
// pin file, and the birth filter rejected candidates.
func TestFilterDifferential(t *testing.T) {
	ps := auditedPass(t)
	if ps.pins != "" {
		t.Fatal(ps.pins)
	}
	if ps.filtered == 0 {
		t.Fatal("the birth filter never rejected anything: it is not wired")
	}
	t.Logf("%d candidates filtered at birth", ps.filtered)
}

// TestAcyclicDifferentialLitmus: the acyclicity engine agreed with the
// closure oracle on every decision of the pass — a disagreement panics
// the pass — and the litmus cells, both strengths under every model,
// took some of them.
func TestAcyclicDifferentialLitmus(t *testing.T) {
	ps := auditedPass(t)
	if ps.litmusChecks == 0 {
		t.Fatal("no acyclicity check of a litmus cell ran under the closure oracle")
	}
	t.Logf("%d of %d acyclicity checks against the closure on litmus cells", ps.litmusChecks, ps.checks)
}

// TestAcyclicDifferentialLocks: the same bar on the lock clients (the
// hot-path clients the engine was built for), including the buggy study
// cases whose violation paths stress the shortcut verdicts.
func TestAcyclicDifferentialLocks(t *testing.T) {
	ps := auditedPass(t)
	if ps.lockChecks == 0 {
		t.Fatal("no acyclicity check of a lock client ran under the closure oracle")
	}
	t.Logf("%d of %d acyclicity checks against the closure on lock clients", ps.lockChecks, ps.checks)
}

// TestAblationDedup: disabling the visited set changed no verdict of
// the pass and cost at least as many pops on every run explored to
// completion — and saved some in sum, evidence that the fingerprint set
// earns its keep.
func TestAblationDedup(t *testing.T) {
	ps := auditedPass(t)
	if ps.dedup != "" {
		t.Fatal(ps.dedup)
	}
	if ps.saved == 0 {
		t.Fatal("the visited set never saved a pop")
	}
	t.Logf("%d pops saved by the visited set", ps.saved)
}

// TestParallelDifferential: across the worker counts of every row of the
// pass the verdict and the enumeration of complete runs agreed, and
// every parallel violation was the sequential one, counters included
// (compareRow); both complete runs and violations were compared.
func TestParallelDifferential(t *testing.T) {
	rc := &auditedPass(t).all
	judgeParallel(t, rc, "corpus")
	if rc.enumerations == 0 || rc.witnesses == 0 {
		t.Fatalf("%d complete enumerations and %d parallel counterexamples compared across worker counts", rc.enumerations, rc.witnesses)
	}
}

// TestParallelDifferentialLitmus, TestParallelDifferentialLocks and
// TestParallelDifferentialQueuePath hold the litmus cells at both
// strengths, the mutex clients and the qspinlock queue-path litmus to
// the same comparisons on their own.
func TestParallelDifferentialLitmus(t *testing.T) {
	judgeParallel(t, auditedPass(t).kinds["litmus"], "litmus")
}

func TestParallelDifferentialLocks(t *testing.T) {
	judgeParallel(t, auditedPass(t).kinds["locks"], "locks")
}

func TestParallelDifferentialQueuePath(t *testing.T) {
	judgeParallel(t, auditedPass(t).kinds["queue path"], "queue path")
}

// judgeParallel fails t on the first finding of the comparison across
// worker counts over rc's rows, or if it compared none of them.
func judgeParallel(t *testing.T, rc *rowChecks, cells string) {
	t.Helper()
	if rc.parallel != "" {
		t.Fatal(rc.parallel)
	}
	if rc.enumerations+rc.witnesses == 0 {
		t.Fatalf("no %s row was compared across worker counts", cells)
	}
	t.Logf("%s: %d complete enumerations and %d parallel counterexamples agree across 1, 2 and 4 workers", cells, rc.enumerations, rc.witnesses)
}

// TestSymDifferential: symmetry reduction on and off agreed on every row
// of the pass as compareRow demands, and the reduction saved pops, so
// the two settings did differ.
func TestSymDifferential(t *testing.T) {
	judgeSym(t, &auditedPass(t).all, "corpus", true)
}

// TestSymDifferentialLitmus and TestSymDifferentialLocks hold the
// litmus cells at both strengths and the mutex clients to the same
// comparisons on their own; the clients' threads are symmetric, so the
// reduction must save pops on them too.
func TestSymDifferentialLitmus(t *testing.T) {
	judgeSym(t, auditedPass(t).kinds["litmus"], "litmus", false)
}

func TestSymDifferentialLocks(t *testing.T) {
	judgeSym(t, auditedPass(t).kinds["locks"], "locks", true)
}

// judgeSym fails t on the first finding of the comparison across
// symmetry settings over rc's rows, if it compared none of them, or,
// when the rows are symmetric, if the reduction saved no pop.
func judgeSym(t *testing.T, rc *rowChecks, cells string, symmetric bool) {
	t.Helper()
	if rc.sym != "" {
		t.Fatal(rc.sym)
	}
	if rc.symCompared == 0 {
		t.Fatalf("no %s row was compared with symmetry on and off", cells)
	}
	if symmetric && rc.symSaved == 0 {
		t.Fatalf("over %d %s rows with symmetric groups the reduction never saved a pop: it is not in effect", rc.symRows, cells)
	}
	t.Logf("%s: %d rows compared with symmetry on and off, %d with symmetric groups; %d pops saved on complete sequential runs", cells, rc.symCompared, rc.symRows, rc.symSaved)
}

// TestDedupDifferential: in every run of the pass without symmetry in
// effect, each raw structural key stood for one string fingerprint (the
// state's Graph.Fingerprint plus its forced pair) and each string for
// one key, so the hashed visited set merged exactly the states the
// string-keyed one would have.
func TestDedupDifferential(t *testing.T) {
	judgeKeys(t, &auditedPass(t).all, "corpus")
}

// TestDedupDifferentialLitmus, TestDedupDifferentialLocks and
// TestDedupDifferentialQueuePath hold the runs of the litmus cells at
// both strengths, the mutex clients and the qspinlock queue-path litmus
// to the same audit on their own.
func TestDedupDifferentialLitmus(t *testing.T) {
	judgeKeys(t, auditedPass(t).kinds["litmus"], "litmus")
}

func TestDedupDifferentialLocks(t *testing.T) {
	judgeKeys(t, auditedPass(t).kinds["locks"], "locks")
}

func TestDedupDifferentialQueuePath(t *testing.T) {
	judgeKeys(t, auditedPass(t).kinds["queue path"], "queue path")
}

// judgeKeys fails t on the first finding of the key audit over the runs
// of rc's rows, or if it audited no key there.
func judgeKeys(t *testing.T, rc *rowChecks, cells string) {
	t.Helper()
	if rc.key != "" {
		t.Fatal(rc.key)
	}
	if rc.keys == 0 {
		t.Fatalf("no raw key of a %s run was audited: the hook is not wired", cells)
	}
	t.Logf("%s: %d raw keys audited against their strings", cells, rc.keys)
}
