package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The birth-filter differential bar: rejecting rf/mo candidates against
// the parent's relations before they are built must be invisible in
// every observable except the traversal counters. The reference is the
// explorer's own generate-then-test mode (core.Checker.GenerateThenTest),
// which materializes and pushes everything the filter would skip and
// lets the pop's Model.Consistent kill it — so the two runs differ in
// nothing but the filter. The reference also hands every such graph to
// an audit hook, which is where the implication "filter rejects ⇒ every
// model rejects" is checked on real exploration states, revisit
// restrictions included.

var allModels = append(mm.All(), mm.Ablations()...)

// filterCell is one row of the differential table.
type filterCell struct {
	p      *vprog.Program
	models []mm.Model
}

// filterCorpus is the suite corpus under all four models, plus what the
// suite leaves out on purpose — the seeded-bug twins and the
// bounded-loop twins — and, outside -short, the three-thread cells
// where most candidates die (revisit-heavy, under WMM only).
func filterCorpus() []filterCell {
	var cells []filterCell
	for _, alg := range locks.All() {
		cells = append(cells, filterCell{harness.MutexClient(alg, alg.DefaultSpec(), 2, 1), allModels})
	}
	for _, w := range workload.All() {
		cells = append(cells, filterCell{workload.Program(w, nil, 2), allModels})
	}
	for _, name := range harness.LitmusNames() {
		for _, strong := range []bool{false, true} {
			cells = append(cells, filterCell{harness.Litmus(name, strong), allModels})
		}
	}
	if !testing.Short() {
		wmm := []mm.Model{mm.WMM}
		qspin := locks.ByName("qspin")
		cells = append(cells,
			filterCell{harness.MutexClient(qspin, qspin.DefaultSpec(), 3, 1), wmm},
			filterCell{workload.Program(workload.ByName("structs/treiber"), nil, 3), wmm},
			filterCell{workload.Program(workload.ByName("structs/treiber-badpop"), nil, 3), wmm})
	}
	return cells
}

// runFilter runs p with the birth filter on, or as the audited
// generate-then-test reference. It returns the result and how many
// graphs the audit saw.
func runFilter(t *testing.T, model mm.Model, p *vprog.Program, workers int, reference bool) (*core.Result, int) {
	t.Helper()
	c := core.New(model)
	c.WorkersPerRun = workers
	var doomed atomic.Int64
	if reference {
		c.GenerateThenTest(func(g *graph.Graph) {
			doomed.Add(1)
			for _, m := range allModels {
				if m.Consistent(g) {
					t.Errorf("%s under %s: the filter rejects a graph %s accepts\n%s",
						p.Name, model.Name(), m.Name(), g.Render())
				}
			}
		})
	}
	res := c.Run(p)
	if res.Verdict == core.Canceled || res.Verdict == core.Error {
		t.Fatalf("%s under %s at %d workers (reference=%v): unexpected %v: %v",
			p.Name, model.Name(), workers, reference, res.Verdict, res.Err)
	}
	return res, int(doomed.Load())
}

func TestFilterDifferential(t *testing.T) {
	audited := 0
	for _, cell := range filterCorpus() {
		p := cell.p
		for _, model := range cell.models {
			for _, workers := range []int{1, 2, 4} {
				on, _ := runFilter(t, model, p, workers, false)
				off, n := runFilter(t, model, p, workers, true)
				audited += n
				id := fmt.Sprintf("%s under %s at %d workers", p.Name, model.Name(), workers)
				// The message of a parallel run names whichever orbit member
				// the schedule reached (only the witness is canonicalized), so
				// it is compared where the schedule is fixed.
				if on.Verdict != off.Verdict || (workers == 1 && on.Message != off.Message) {
					t.Fatalf("%s: filter on says %v (%s), reference says %v (%s)",
						id, on.Verdict, on.Message, off.Verdict, off.Message)
				}
				// Blocked, under symmetry, drifts by a count in about one
				// parallel run in a hundred with or without the filter (see
				// TestParallelStealingHappens), so it too is compared
				// sequentially; Executions never drifts.
				if on.Stats.Executions != off.Stats.Executions || (workers == 1 && on.Stats.Blocked != off.Stats.Blocked) {
					t.Fatalf("%s: enumeration diverged\non:  %+v\noff: %+v", id, on.Stats, off.Stats)
				}
				if witnessKey(on) != witnessKey(off) {
					t.Fatalf("%s: counterexamples differ", id)
				}
				if workers == 1 && on.Stats.Popped > off.Stats.Popped {
					t.Fatalf("%s: filter on popped %d states, the reference %d", id, on.Stats.Popped, off.Stats.Popped)
				}
				if off.Stats.Filtered > 0 && on.Stats.Filtered == 0 {
					t.Fatalf("%s: the reference saw %d rejections, the filtered run none", id, off.Stats.Filtered)
				}
			}
		}
	}
	if audited == 0 {
		t.Fatal("the audit hook never ran: the reference mode is not wired")
	}
}

// TestFilterKeepsRacingCASRevisit: two exchanges racing on one source.
// Whichever is added second either reads the first (admissible) or the
// init — which splits the first from the init in mo and is rejected at
// birth, yet that rejected graph is the only producer of the revisit in
// which the first exchange re-reads from the second. Both mo orders
// must still be reached.
func TestFilterKeepsRacingCASRevisit(t *testing.T) {
	var mu sync.Mutex
	finals := map[uint64]int{}
	p := &vprog.Program{
		Name: "filter/racing-xchg",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			mk := func(v uint64) vprog.ThreadFunc {
				return func(m vprog.Mem) { m.Xchg(x, v, vprog.AcqRel) }
			}
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				mu.Lock()
				finals[load(x)]++
				mu.Unlock()
				return true, ""
			}
			return []vprog.ThreadFunc{mk(1), mk(2)}, final
		},
	}
	for _, model := range allModels {
		clear(finals)
		res, _ := runFilter(t, model, p, 1, false)
		if !res.Ok() || res.Stats.Executions != 2 || finals[1] != 1 || finals[2] != 1 {
			t.Fatalf("under %s: %v, final values seen %v — want one execution per mo order", model.Name(), res, finals)
		}
		if res.Stats.Filtered == 0 || res.Stats.Inconsist != 0 {
			t.Fatalf("under %s: the split exchange should die at birth, not at a pop: %+v", model.Name(), res.Stats)
		}
	}
}

// countingModel wraps a model the way the benchmark's tracer does: same
// name, same verdicts, one side effect.
type countingModel struct {
	mm.Model
	calls atomic.Int64
}

func (m *countingModel) Consistent(g *graph.Graph) bool {
	m.calls.Add(1)
	return m.Model.Consistent(g)
}

// TestFilterIgnoresModelIdentity: the filter keys on nothing but the
// parent's relations, so a wrapper around a model explores exactly the
// state set the bare model does.
func TestFilterIgnoresModelIdentity(t *testing.T) {
	p := workload.Program(workload.ByName("structs/treiber"), nil, 2)
	for _, model := range allModels {
		bare, _ := runFilter(t, model, p, 1, false)
		wrapped := &countingModel{Model: model}
		res, _ := runFilter(t, wrapped, p, 1, false)
		if res.Stats != bare.Stats {
			t.Fatalf("under %s: a wrapped model changed the exploration\nbare:    %+v\nwrapped: %+v", model.Name(), bare.Stats, res.Stats)
		}
		if wrapped.calls.Load() == 0 {
			t.Fatalf("under %s: the wrapper was never asked", model.Name())
		}
	}
}
