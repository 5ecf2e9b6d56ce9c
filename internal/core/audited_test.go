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

// runFilter runs p under model at the given worker count.
func runFilter(t *testing.T, model mm.Model, p *vprog.Program, workers int) *core.Result {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	res := c.Run(p)
	if res.Verdict == core.Canceled || res.Verdict == core.Error {
		t.Fatalf("%s under %s at %d workers: unexpected %v: %v", p.Name, model.Name(), workers, res.Verdict, res.Err)
	}
	return res
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
			res := runFilter(t, model, cell.Program, 1)
			fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%d\n", cell.Program.Name, model.Name(), res.Verdict, res.Stats.Executions, res.Stats.Filtered)
		}
	}
	if err := os.WriteFile(filterPinFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pass is the one audited pass over harness.Corpus of this test
// binary: every cell under its models at 1, 2 and 4 workers, explored
// once with every check this package's export_test.go can arm and
// graph's acyclicity oracle armed together:
//   - AuditBirthRule replays every child the birth rule rejects, which
//     must collapse, and builds and replays the revisits its write would
//     have seeded, which must collapse too; it throws them away again and
//     restores the worker's counters, so the run counts what an
//     unaudited one does;
//   - AuditReplayMemo replays every memo hit afresh and compares it with
//     the entry served, field for field;
//   - graph.CrossCheckAcyclic re-runs the transitive-closure oracle on
//     every closure-free decision of the acyclicity engine (Kahn passes,
//     order-seeded fast paths, shortcuts from the order state alone) and
//     panics on disagreement.
//
// Every run is held to the pin file: its verdict, its executions
// (sequentially, or of a complete run at any worker count) and,
// sequentially, the candidates the birth filter rejected. At one worker
// every two-thread cell also runs with DisableDedup: the verdict must
// hold, and a run explored to completion must pop no fewer states
// without the visited set.
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
	graph.CrossCheckAcyclic = true
	defer func() { graph.CrossCheckAcyclic = false }()

	ps := &pass{}
	start := time.Now()
	// explore runs one configuration and notes the first finding of the
	// birth and memo audits (the acyclicity oracle panics on its own).
	explore := func(id string, p *vprog.Program, run func() *core.Result) *core.Result {
		res := run()
		_, _, failure := birth()
		note(&ps.birth, id, failure)
		_, failure = memo()
		note(&ps.memo, id, failure)
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
			for _, workers := range []int{1, 2, 4} {
				id := fmt.Sprintf("%s under %s at %d workers", p.Name, model.Name(), workers)
				res := explore(id, p, func() *core.Result { return runFilter(t, model, p, workers) })
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
	}
	if !testing.Short() && len(pins) != 0 {
		t.Fatalf("%s has %d lines the corpus does not", filterPinFile, len(pins))
	}
	ps.seeds, ps.revisits, _ = birth()
	ps.hits, _ = memo()
	ps.elapsed = time.Since(start)
	return ps
}

// TestAuditedCorpus runs the audited pass, fails on any check's
// finding — the tests below judge one check each, its counters
// included — and reports the pass's time.
func TestAuditedCorpus(t *testing.T) {
	ps := auditedPass(t)
	for _, finding := range []string{ps.birth, ps.memo, ps.pins, ps.dedup} {
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
