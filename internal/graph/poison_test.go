package graph_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

// Use-after-release must be loud, not a wrong verdict. These tests run
// the explorer with graph.PoisonOnRelease: every slab a worker retires
// is filled with ones and every header has its slices dropped before it
// is parked, so a state that is read after its last reference went —
// or released while a witness, a checkpoint or a revisit still needs it
// — changes a verdict, a count or a witness byte, or panics. The whole
// corpus runs poisoned in the audited pass of audited_test.go, which
// TestPoisonCorpus judges; the tests here drive the ways a state
// outlives its pop: a budget stop, a periodic checkpoint, a witness and
// a child rejected at birth. They live here, not in internal/core,
// because the hook is this package's export_test.go: production code
// has no switch for it.

// poisoned runs f with poison-on-release in force.
func poisoned(f func()) {
	graph.PoisonOnRelease(true)
	defer graph.PoisonOnRelease(false)
	f()
}

// observed is everything a caller can see of a run that must not depend
// on who recycled what.
type observed struct {
	verdict core.Verdict
	message string
	stats   core.Stats
	witness []byte    // the encoded counterexample, stamps included
	key     [2]uint64 // its structural fingerprint (schedule-independent)
}

func observe(t *testing.T, id string, res *core.Result) observed {
	t.Helper()
	if res.Verdict == core.Error || res.Verdict == core.Canceled {
		t.Fatalf("%s: unexpected %v: %v", id, res.Verdict, res.Err)
	}
	o := observed{verdict: res.Verdict, message: res.Message, stats: res.Stats}
	if w := res.Witness; w != nil {
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("%s: malformed witness: %v", id, err)
		}
		if w.Render() == "" {
			t.Fatalf("%s: witness renders empty", id)
		}
		o.witness, o.key = graph.AppendGraph(nil, w), w.Fingerprint128()
	} else if res.Verdict == core.SafetyViolation || res.Verdict == core.ATViolation {
		t.Fatalf("%s: violation without a witness", id)
	}
	return o
}

// differ compares a poisoned run with its clean twin and says how they
// differ, or returns "". Sequential runs repeat exactly, blocked count
// and witness bytes included; parallel runs agree on the verdict, the
// execution count and the counterexample (Blocked drifts by a count or
// two between schedules on the three-thread cells, with or without
// recycling).
func differ(clean, dirty observed, workers int) string {
	if clean.verdict != dirty.verdict {
		return fmt.Sprintf("verdict %v clean, %v with poisoned free lists", clean.verdict, dirty.verdict)
	}
	if workers == 1 {
		if clean.stats != dirty.stats || clean.message != dirty.message || !bytes.Equal(clean.witness, dirty.witness) {
			return fmt.Sprintf("sequential run changed under poison\nclean: %q %+v\ndirty: %q %+v", clean.message, clean.stats, dirty.message, dirty.stats)
		}
		return ""
	}
	if clean.stats.Executions != dirty.stats.Executions {
		return fmt.Sprintf("enumeration changed under poison\nclean: %+v\ndirty: %+v", clean.stats, dirty.stats)
	}
	if clean.key != dirty.key {
		return "counterexample changed under poison"
	}
	return ""
}

// same fails the test where differ finds a difference.
func same(t *testing.T, id string, clean, dirty observed, workers int) {
	t.Helper()
	if d := differ(clean, dirty, workers); d != "" {
		t.Fatalf("%s: %s", id, d)
	}
}

func runCell(model mm.Model, p *vprog.Program, workers int, nosym bool) *core.Result {
	c := core.New(model)
	c.WorkersPerRun = workers
	c.NoSymmetry = nosym
	return c.Run(p)
}

// segmented resumes a budgeted run from its own checkpoints until it
// decides; with roundTrip each checkpoint goes through its encoding.
func segmented(t *testing.T, p *vprog.Program, workers int, budget int64, roundTrip bool) *core.Result {
	t.Helper()
	var ck *core.Checkpoint
	for segs := 0; ; segs++ {
		c := core.New(mm.WMM)
		c.WorkersPerRun = workers
		c.Budget = core.Budget{MaxGraphs: budget}
		c.Resume = ck
		res := c.Run(p)
		if res.Verdict != core.Undecided {
			return res
		}
		if ck = res.Checkpoint; ck == nil || segs > 10000 {
			t.Fatalf("%s: segment %d undecided without progress", p.Name, segs)
		}
		if roundTrip {
			dec, err := core.DecodeCheckpoint(ck.Encode())
			if err != nil {
				t.Fatalf("%s: segment %d: %v", p.Name, segs, err)
			}
			ck = dec
		}
	}
}

func ckptPrograms() []*vprog.Program {
	mcs, dpdk := locks.ByName("mcs"), locks.ByName("dpdkmcs-buggy")
	return []*vprog.Program{
		harness.Litmus("SB", false),
		harness.Litmus("SB+fences", false),
		harness.Fig1PartialMCS(true),
		harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1),
		harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1),
		workload.Program(workload.ByName("structs/treiber"), nil, 2),
	}
}

// TestPoisonHaltedStateSurvives: the state a budget stop pushes back on
// its deque was popped but not processed, and must not be released by
// the step that tripped (never-recycled case 2). With a budget of one
// graph every state of the run takes that path once; the segmented
// sequential run must still repeat the uninterrupted one counter for
// counter (core's TestBudgetSegmentedSequentialExact, under poison), and
// the parallel one must agree on what is schedule-independent.
func TestPoisonHaltedStateSurvives(t *testing.T) {
	for _, p := range ckptPrograms() {
		base := observe(t, p.Name, runCell(mm.WMM, p, 1, false))
		par := observe(t, p.Name, runCell(mm.WMM, p, 4, false))
		poisoned(func() {
			for _, budget := range []int64{1, 7, 50} {
				for _, roundTrip := range []bool{false, true} {
					id := fmt.Sprintf("%s in segments of %d (encoded=%v)", p.Name, budget, roundTrip)
					same(t, id, base, observe(t, id, segmented(t, p, 1, budget, roundTrip)), 1)
					if budget > 1 {
						same(t, id+" at 4 workers", par, observe(t, id, segmented(t, p, 4, budget, roundTrip)), 4)
					}
				}
			}
		})
	}
}

// TestPoisonCheckpointedStatesSurvive: a periodic snapshot is encoded
// by the sink while the workers run on, pop the captured states and
// finish with them; and a caller may resume from one checkpoint more
// than once (never-recycled case 3). Every snapshot must still encode
// after the run, to the bytes it encoded to when it was taken, and two
// resumes from the same in-memory snapshot must both reach the
// uninterrupted run's answer.
func TestPoisonCheckpointedStatesSurvive(t *testing.T) {
	mcs := locks.ByName("mcs")
	p := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	for _, workers := range []int{1, 4} {
		base := observe(t, p.Name, runCell(mm.WMM, p, workers, false))
		poisoned(func() {
			var mu sync.Mutex
			var snaps []*core.Checkpoint
			var taken [][]byte
			c := core.New(mm.WMM)
			c.WorkersPerRun = workers
			c.CheckpointInterval = time.Nanosecond
			c.CheckpointSink = func(ck *core.Checkpoint) error {
				mu.Lock()
				snaps, taken = append(snaps, ck), append(taken, ck.Encode())
				mu.Unlock()
				return nil
			}
			id := fmt.Sprintf("%s at %d workers", p.Name, workers)
			same(t, id, base, observe(t, id, c.Run(p)), workers)
			if len(snaps) == 0 {
				t.Fatalf("%s: the sink never received a checkpoint", id)
			}
			for i, ck := range snaps {
				if !bytes.Equal(ck.Encode(), taken[i]) {
					t.Fatalf("%s: snapshot %d of %d encodes differently after the run than when it was taken", id, i, len(snaps))
				}
			}
			for _, ck := range []*core.Checkpoint{snaps[0], snaps[len(snaps)/2], snaps[len(snaps)-1]} {
				for again := 0; again < 2; again++ {
					c2 := core.New(mm.WMM)
					c2.WorkersPerRun = workers
					c2.Resume = ck
					got := observe(t, id, c2.Run(p))
					// Blocked is a traversal counter on a symmetric multi-worker
					// run (see the core.Stats doc): compared sequentially only.
					if got.verdict != base.verdict || got.stats.Executions != base.stats.Executions ||
						(workers == 1 && got.stats.Blocked != base.stats.Blocked) {
						t.Fatalf("%s: resume %d from a periodic snapshot diverged: %+v, want %+v", id, again, got.stats, base.stats)
					}
				}
			}
		})
	}
}

// TestPoisonWitnessSurvives: the graph a violation reports is the popped
// state itself whenever no relabeling applies — without symmetry always,
// with it when the state is its orbit's representative (never-recycled
// case 1); the other workers of a parallel run finish their steps after
// it halts the run, and the one-worker rerun that reports it recycles
// through free lists of its own. The witness must come back well-formed
// (observe checks that) and identical to the clean run's at one worker
// and at four.
func TestPoisonWitnessSurvives(t *testing.T) {
	dpdk, huawei := locks.ByName("dpdkmcs-buggy"), locks.ByName("huaweimcs-buggy")
	cells := []*vprog.Program{
		harness.Litmus("SB", false),
		harness.Litmus("IRIW", false),
		harness.Fig1PartialMCS(true),
		harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1),
		harness.MutexClient(huawei, huawei.DefaultSpec(), 2, 1),
		workload.Program(workload.ByName("structs/treiber-badpop"), nil, 2),
		workload.Program(workload.ByName("structs/msqueue-badlink"), nil, 2),
	}
	for _, p := range cells {
		for _, nosym := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				id := fmt.Sprintf("%s at %d workers (nosym=%v)", p.Name, workers, nosym)
				clean := observe(t, id, runCell(mm.WMM, p, workers, nosym))
				if clean.witness == nil {
					t.Fatalf("%s: expected a violation, got %v", id, clean.verdict)
				}
				poisoned(func() {
					same(t, id, clean, observe(t, id, runCell(mm.WMM, p, workers, nosym)), workers)
				})
			}
		}
	}
}

// TestPoisonSplitChildSurvivesItsRevisits: two exchanges racing on one
// source. The second to be added, reading the init, splits the first
// from it in mo: the birth filter rejects that child, yet it is the only
// producer of the revisit in which the first exchange re-reads from the
// second, so it is built, read by pushRevisits and released only then
// (never-recycled case 4). Released at birth, the revisit is cut from a
// poisoned header and one of the two mo orders goes missing.
func TestPoisonSplitChildSurvivesItsRevisits(t *testing.T) {
	var mu sync.Mutex
	finals := map[uint64]int{}
	p := &vprog.Program{
		Name: "poison/racing-xchg",
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
	poisoned(func() {
		for _, model := range append(mm.All(), mm.Ablations()...) {
			clear(finals)
			res := runCell(model, p, 1, false)
			if !res.Ok() || res.Stats.Executions != 2 || finals[1] != 1 || finals[2] != 1 {
				t.Fatalf("under %s: %v, final values seen %v — want one execution per mo order", model.Name(), res, finals)
			}
			if res.Stats.Filtered == 0 {
				t.Fatalf("under %s: the split exchange was not filtered at birth: %+v", model.Name(), res.Stats)
			}
		}
	})
}
