package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

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
		res := run(t, model, p, 1, false)
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
		bare := run(t, model, p, 1, false)
		wrapped := &countingModel{Model: model}
		res := run(t, wrapped, p, 1, false)
		if res.Stats != bare.Stats {
			t.Fatalf("under %s: a wrapped model changed the exploration\nbare:    %+v\nwrapped: %+v", model.Name(), bare.Stats, res.Stats)
		}
		if wrapped.calls.Load() == 0 {
			t.Fatalf("under %s: the wrapper was never asked", model.Name())
		}
	}
}
