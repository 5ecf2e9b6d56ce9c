package core_test

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

// A replay snapshot block read after its last reference went must be
// loud, not a wrong count. These tests are internal/graph/poison_test.go
// for the third thing a free list holds: they run the explorer with
// core.PoisonSnapOnRelease, so a state that reads its producer's replay
// results after dropping its reference, a block released twice, or a
// block that still points into its parent's ends a run with an error,
// panics, or changes a count. They live here because the hook is this
// package's export_test.go.

func poisonedSnaps(f func()) {
	core.PoisonSnapOnRelease(true)
	defer core.PoisonSnapOnRelease(false)
	f()
}

// sameUnderPoison compares a poisoned run with its clean twin: a
// sequential run repeats exactly, message and witness bytes included;
// parallel runs agree on what is schedule-independent (sameEnumeration)
// and on the counterexample — not on the message of a final-state check,
// which names the values of whichever orbit member was popped.
func sameUnderPoison(t *testing.T, id string, clean, dirty *core.Result) {
	t.Helper()
	if clean.Verdict != dirty.Verdict || (clean.Sched.Workers == 1 && clean.Message != dirty.Message) {
		t.Fatalf("%s: %v (%q) clean, %v (%q) with poisoned snapshot blocks", id, clean.Verdict, clean.Message, dirty.Verdict, dirty.Message)
	}
	if (clean.Witness == nil) != (dirty.Witness == nil) || witnessKey(clean) != witnessKey(dirty) {
		t.Fatalf("%s: counterexample changed under poison", id)
	}
	if clean.Sched.Workers > 1 {
		if !sameEnumeration(clean, dirty) {
			t.Fatalf("%s: enumeration changed under poison\nclean: %+v\ndirty: %+v", id, clean.Stats, dirty.Stats)
		}
		return
	}
	if clean.Stats != dirty.Stats {
		t.Fatalf("%s: sequential run changed under poison\nclean: %+v\ndirty: %+v", id, clean.Stats, dirty.Stats)
	}
	if w := clean.Witness; w != nil && !bytes.Equal(graph.AppendGraph(nil, w), graph.AppendGraph(nil, dirty.Witness)) {
		t.Fatalf("%s: witness bytes changed under poison", id)
	}
}

// TestPoisonSnapCorpus: harness.Corpus — the parallel and the symmetry
// differential corpora in one table — at 1, 2 and 4 workers, symmetry on
// and (small cells) off, clean and poisoned. Big cells run under WMM only.
func TestPoisonSnapCorpus(t *testing.T) {
	var mem graph.MemCounters
	for _, cell := range harness.Corpus(testing.Short()) {
		models := mm.All()
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
					clean := runSymAt(t, m, cell.Program, workers, nosym)
					poisonedSnaps(func() {
						dirty := runSymAt(t, m, cell.Program, workers, nosym)
						sameUnderPoison(t, id, clean, dirty)
						mem.Add(dirty.Mem)
					})
				}
			}
		}
	}
	if mem.BlockHits == 0 {
		t.Fatalf("no block was recycled, so nothing was tested: %+v", mem)
	}
	if !testing.Short() && mem.BlockThief == 0 {
		t.Errorf("no block was ever retired by a thief: %+v", mem)
	}
}

// TestSnapRecycleRate: on the benchmark's cell nearly every step that
// pushes a child finds a parked block (a rate under 95% is a release that
// is not made: the producer's, or a child's on some way out of execute),
// and a lone worker retires only what it took.
func TestSnapRecycleRate(t *testing.T) {
	if testing.Short() {
		t.Skip("treiber t=3; not run in -short")
	}
	p := workload.Program(workload.ByName("structs/treiber"), nil, 3)
	for _, workers := range []int{1, 2} {
		m := runSymAt(t, mm.WMM, p, workers, false).Mem
		t.Logf("%d workers: %d blocks requested, %d recycled, %d retired by a thief", workers, m.BlockRequests, m.BlockHits, m.BlockThief)
		if m.BlockRequests == 0 || m.BlockHits*100 < m.BlockRequests*95 {
			t.Errorf("%d workers: %d of %d snapshot blocks recycled, want 95%%", workers, m.BlockHits, m.BlockRequests)
		}
		if workers == 1 && m.BlockThief != 0 {
			t.Errorf("a lone worker retired %d blocks as a thief", m.BlockThief)
		}
	}
}

// TestSnapWitnessSurvives: a deciding state gives its block's reference
// back like any other, while its graph — the witness — is kept; a
// parallel run explores on after recording it. The counterexample must
// come back identical from the first-violation sequential runs and from
// the complete parallel ones.
func TestSnapWitnessSurvives(t *testing.T) {
	dpdk := locks.ByName("dpdkmcs-buggy")
	for _, p := range []*vprog.Program{
		harness.Litmus("IRIW", false),
		harness.Fig1PartialMCS(true),
		harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1),
		workload.Program(workload.ByName("structs/treiber-badpop"), nil, 2),
		workload.Program(workload.ByName("structs/msqueue-badlink"), nil, 2),
	} {
		for _, workers := range []int{1, 4} {
			id := fmt.Sprintf("%s at %d workers", p.Name, workers)
			clean := runSymAt(t, mm.WMM, p, workers, false)
			if clean.Witness == nil {
				t.Fatalf("%s: expected a violation, got %v", id, clean.Verdict)
			}
			poisonedSnaps(func() {
				dirty := runSymAt(t, mm.WMM, p, workers, false)
				if err := dirty.Witness.CheckInvariants(); err != nil {
					t.Fatalf("%s: malformed witness: %v", id, err)
				}
				sameUnderPoison(t, id, clean, dirty)
			})
		}
	}
}

// TestSnapHaltedStateKeepsItsBlock: the state a budget stop pushes back
// on its deque was popped but not stepped, so its reference is not
// dropped; the checkpoint then takes a copy without the block. With a
// budget of one graph every state of the run takes that path once, and
// the segmented run must still repeat the uninterrupted one.
func TestSnapHaltedStateKeepsItsBlock(t *testing.T) {
	for _, p := range ckptCorpus() {
		seq, par := runAt(t, mm.WMM, p, 1), runAt(t, mm.WMM, p, 4)
		poisonedSnaps(func() {
			for _, budget := range []int64{1, 7, 50} {
				id := fmt.Sprintf("%s in segments of %d", p.Name, budget)
				res, _ := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: budget}, budget == 7)
				sameUnderPoison(t, id, seq, res)
				if budget > 1 {
					res, _ = runSegmented(t, mm.WMM, p, 4, core.Budget{MaxGraphs: budget}, false)
					sameUnderPoison(t, id+" at 4 workers", par, res)
				}
			}
		})
	}
}

// TestSnapCheckpointedFrontier: a periodic snapshot copies the frontier
// while the states in it keep their blocks and the run goes on recycling
// them; the copies carry none. Every snapshot must still encode, after the
// run, to the bytes it encoded to when taken, and two resumes from one
// in-memory snapshot — whose states are then popped with nothing to alias
// — must both reach the uninterrupted run's answer.
func TestSnapCheckpointedFrontier(t *testing.T) {
	mcs := locks.ByName("mcs")
	p := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	for _, workers := range []int{1, 4} {
		id := fmt.Sprintf("%s at %d workers", p.Name, workers)
		base := runAt(t, mm.WMM, p, workers)
		poisonedSnaps(func() {
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
			sameUnderPoison(t, id, base, c.Run(p))
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
					got := c2.Run(p)
					if got.Verdict != base.Verdict || !sameEnumeration(got, base) {
						t.Fatalf("%s: resume %d from a periodic snapshot diverged: %+v, want %+v", id, again, got.Stats, base.Stats)
					}
				}
			}
		})
	}
}
