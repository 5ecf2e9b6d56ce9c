package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// randOp is one generated straight-line instruction.
type randOp struct {
	isStore bool
	loc     int
	val     uint64
	mode    vprog.Mode
}

// randProgram generates a deterministic straight-line two-thread
// program from a seed: loads and stores over two locations with modes
// up to acquire/release (mode monotonicity across SC ⊆ TSO ⊆ WMM holds
// for this fragment; SC-mode accesses would break TSO ⊆ WMM, see
// TestModelMonotonicity).
func randProgram(seed int64, opsPerThread int) *vprog.Program {
	rng := rand.New(rand.NewSource(seed))
	mkOps := func() []randOp {
		ops := make([]randOp, opsPerThread)
		for i := range ops {
			o := randOp{
				isStore: rng.Intn(2) == 0,
				loc:     rng.Intn(2),
				val:     uint64(rng.Intn(3) + 1),
			}
			if o.isStore {
				o.mode = []vprog.Mode{vprog.Rlx, vprog.Rel}[rng.Intn(2)]
			} else {
				o.mode = []vprog.Mode{vprog.Rlx, vprog.Acq}[rng.Intn(2)]
			}
			ops[i] = o
		}
		return ops
	}
	t0ops, t1ops := mkOps(), mkOps()
	return &vprog.Program{
		Name: fmt.Sprintf("random/%d", seed),
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			locs := []*vprog.Var{env.Var("x", 0), env.Var("y", 0)}
			mk := func(ops []randOp) vprog.ThreadFunc {
				return func(m vprog.Mem) {
					for _, o := range ops {
						if o.isStore {
							m.Store(locs[o.loc], o.val, o.mode)
						} else {
							m.Load(locs[o.loc], o.mode)
						}
					}
				}
			}
			return []vprog.ThreadFunc{mk(t0ops), mk(t1ops)}, nil
		},
	}
}

// TestModelMonotonicity is a differential property test: for random
// rlx/acq/rel programs, every SC-consistent execution is TSO-consistent
// and every TSO-consistent execution is WMM-consistent, so the number
// of complete executions the checker enumerates must be monotone in
// model weakness. This cross-checks the three consistency predicates
// and the exploration itself against each other.
func TestModelMonotonicity(t *testing.T) {
	prop := func(seedRaw int32, opsRaw uint8) bool {
		ops := int(opsRaw%3) + 2 // 2..4 ops per thread
		p := randProgram(int64(seedRaw), ops)
		count := func(m mm.Model) int {
			res := core.New(m).Run(p)
			if res.Verdict != core.OK {
				t.Fatalf("%s under %s: %v", p.Name, m.Name(), res)
			}
			return res.Stats.Executions
		}
		sc, tso, wmm := count(mm.SC), count(mm.TSO), count(mm.WMM)
		if sc < 1 {
			return false // every program has at least one execution
		}
		return sc <= tso && tso <= wmm
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCheckerDeterminism: two runs of the same program produce
// identical statistics (Theorem 1's algorithmic determinism — the
// exploration order is fixed).
func TestCheckerDeterminism(t *testing.T) {
	p := harness.Fig3TTAS()
	a := core.New(mm.WMM).Run(p)
	b := core.New(mm.WMM).Run(p)
	if a.Stats != b.Stats {
		t.Fatalf("non-deterministic exploration: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestAMCTheorem1_Termination: AMC terminates on every registered
// primitive's client — including awaits that could loop forever under
// naive SMC (the W(G) filter collapses GF to the finite GF*).
func TestAMCTheorem1_Termination(t *testing.T) {
	for _, alg := range locks.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			res := core.New(mm.WMM).Run(harness.MutexClient(alg, alg.DefaultSpec(), 2, 1))
			if res.Verdict == core.Error {
				t.Fatalf("checker did not terminate cleanly: %v", res.Err)
			}
			if alg.Buggy && res.Ok() {
				t.Fatalf("known-buggy %s verified", alg.Name)
			}
			if !alg.Buggy && !res.Ok() {
				t.Fatalf("correct %s rejected: %v", alg.Name, res)
			}
		})
	}
}

// TestAMCTheorem1_NoFalsePositives: strengthening barriers must never
// introduce a violation — any spec at least as strong as a verified one
// verifies. (Relaxation monotonicity of the three models.)
func TestAMCTheorem1_NoFalsePositives(t *testing.T) {
	for _, name := range []string{"spin", "ttas", "ticket", "mcs"} {
		alg := locks.ByName(name)
		spec := alg.DefaultSpec()
		for _, p := range spec.Points() {
			stronger := spec.Clone()
			stronger.Set(p, vprog.SC)
			res := core.New(mm.WMM).Run(harness.MutexClient(alg, stronger, 2, 1))
			if !res.Ok() {
				t.Errorf("%s: strengthening %s to sc broke verification: %v", name, p, res)
			}
		}
	}
}

// TestAMCWastefulFilterEffect: the W(G) filter must fire on awaiting
// programs (otherwise the search space of Fig. 1 would be infinite).
func TestAMCWastefulFilterEffect(t *testing.T) {
	res := core.New(mm.WMM).Run(harness.Fig3TTAS())
	if !res.Ok() {
		t.Fatal(res)
	}
	if res.Stats.Wasteful == 0 {
		t.Error("expected wasteful executions to be pruned for an awaiting program")
	}
	if res.Stats.Revisits == 0 {
		t.Error("expected write→read revisits during lock exploration")
	}
}

// TestMaxGraphsGuard: the pop budget turns a too-large exploration into
// a resumable Undecided — a checkpoint, and a message that says what to
// do — instead of a hang or an error, and segments of that budget add
// up to exactly the uninterrupted run.
func TestMaxGraphsGuard(t *testing.T) {
	p := harness.MutexClient(locks.ByName("mcs"), locks.ByName("mcs").DefaultSpec(), 2, 1)
	c := core.New(mm.WMM)
	c.Budget = core.Budget{MaxGraphs: 10}
	res := c.Run(p)
	if res.Verdict != core.Undecided || res.Checkpoint == nil {
		t.Fatalf("want Undecided with a checkpoint at 10 pops, got %v", res)
	}
	for _, want := range []string{"MaxGraphs=10 popped states", "resume", "raise the budget", "Bounded-Length principle never finishes"} {
		if !strings.Contains(res.Message, want) {
			t.Errorf("message %q does not say %q", res.Message, want)
		}
	}
	whole := core.New(mm.WMM).Run(p)
	seg, segs := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: 10}, false)
	if !whole.Ok() || !seg.Ok() || seg.Stats.Popped != whole.Stats.Popped {
		t.Fatalf("uninterrupted %v, %d popped; in %d segments of 10 pops %v, %d popped",
			whole.Verdict, whole.Stats.Popped, segs, seg.Verdict, seg.Stats.Popped)
	}
}

// TestUnboundedAwaitDetected: an await that polls no shared variable
// violates the progress assumptions and must be reported as an error,
// not spin the replayer forever.
func TestUnboundedAwaitDetected(t *testing.T) {
	p := &vprog.Program{
		Name: "bad/await-no-reads",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			t0 := func(m vprog.Mem) {
				i := 0
				m.AwaitWhile(func() bool { i++; return true })
			}
			return []vprog.ThreadFunc{t0}, nil
		},
	}
	res := core.New(mm.WMM).Run(p)
	if res.Verdict != core.Error {
		t.Fatalf("want Error for local-only await, got %v", res)
	}
}

// TestNestedAwaitRejected: the paper's syntactic restriction (§2.1.1).
func TestNestedAwaitRejected(t *testing.T) {
	p := &vprog.Program{
		Name: "bad/nested-await",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			t0 := func(m vprog.Mem) {
				m.AwaitWhile(func() bool {
					m.AwaitWhile(func() bool { return m.Load(x, vprog.Rlx) == 1 })
					return false
				})
			}
			return []vprog.ThreadFunc{t0}, nil
		},
	}
	res := core.New(mm.WMM).Run(p)
	if res.Verdict != core.Error {
		t.Fatalf("want Error for nested awaits, got %v", res)
	}
}

// TestInlineAssert: thread-local assertions become error events with
// the failing graph attached.
func TestInlineAssert(t *testing.T) {
	p := &vprog.Program{
		Name: "assert/inline",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			t0 := func(m vprog.Mem) { m.Store(x, 1, vprog.Rlx) }
			t1 := func(m vprog.Mem) {
				v := m.Load(x, vprog.Rlx)
				m.Assert(v == 0, "observed the write")
			}
			return []vprog.ThreadFunc{t0, t1}, nil
		},
	}
	res := core.New(mm.WMM).Run(p)
	if res.Verdict != core.SafetyViolation || res.Witness == nil {
		t.Fatalf("want safety violation with witness, got %v", res)
	}
}
