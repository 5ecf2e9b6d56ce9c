package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The birth-filter bar: rejecting rf/mo candidates against the parent's
// relations before they are built must be invisible in every observable
// except the traversal counters. For one PR the explorer kept a
// generate-then-test reference that built and pushed everything the
// filter skips and let the pop's Model.Consistent kill it; the two modes
// agreed on every cell below, at 1, 2 and 4 workers, and every graph the
// filter skipped was rejected by all four models. The reference is gone;
// what it confirmed is pinned in testdata/filter_pins.txt (verdict,
// Executions and, sequentially, the Filtered count of every cell), and
// graph's TestAdmitIsNecessary/TestAdmitCases keep checking Admit
// against relations built from scratch.

var allModels = append(mm.All(), mm.Ablations()...)

var updateFilterPins = flag.Bool("update-filter-pins", false, "rewrite testdata/filter_pins.txt from this build's sequential runs")

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

const filterPinFile = "testdata/filter_pins.txt"

func TestFilterDifferential(t *testing.T) {
	if *updateFilterPins {
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
		return
	}
	data, err := os.ReadFile(filterPinFile)
	if err != nil {
		t.Fatal(err)
	}
	pins := strings.Split(strings.TrimSpace(string(data)), "\n")
	filtered := 0
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
				res := runFilter(t, model, p, workers)
				id := fmt.Sprintf("%s under %s at %d workers", p.Name, model.Name(), workers)
				if got := res.Verdict.String(); got != f[2] {
					t.Fatalf("%s: verdict %q, pinned %q", id, got, f[2])
				}
				// A sequential violation run stops at its first witness, so its
				// counts are pinned sequentially only; complete runs count the
				// same executions at any worker count.
				if got := fmt.Sprint(res.Stats.Executions); got != f[3] && (workers == 1 || res.Ok()) {
					t.Fatalf("%s: %s executions, pinned %s", id, got, f[3])
				}
				// Filtered is a traversal counter: exact only where the
				// schedule is fixed.
				if got := fmt.Sprint(res.Stats.Filtered); workers == 1 && got != f[4] {
					t.Fatalf("%s: %s candidates filtered at birth, pinned %s", id, got, f[4])
				}
				filtered += res.Stats.Filtered
			}
		}
	}
	if !testing.Short() && len(pins) != 0 {
		t.Fatalf("%s has %d lines the corpus does not", filterPinFile, len(pins))
	}
	if filtered == 0 {
		t.Fatal("the birth filter never rejected anything: it is not wired")
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
		res := runFilter(t, model, p, 1)
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
		bare := runFilter(t, model, p, 1)
		wrapped := &countingModel{Model: model}
		res := runFilter(t, wrapped, p, 1)
		if res.Stats != bare.Stats {
			t.Fatalf("under %s: a wrapped model changed the exploration\nbare:    %+v\nwrapped: %+v", model.Name(), bare.Stats, res.Stats)
		}
		if wrapped.calls.Load() == 0 {
			t.Fatalf("under %s: the wrapper was never asked", model.Name())
		}
	}
}
