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

// A replay served from a worker's memo must be the replay the worker
// would have run. These tests arm core.AuditReplayMemo, which replays
// every hit afresh and compares field for field, over the ways a
// state's shared replay results (ExploreState.snap) leave the ordinary
// pop path: a deciding state, a state a budget stop pushes back, and a
// checkpoint's copy of the frontier; the audited pass arms it over the
// whole corpus. A key that misses something replayThread reads, or an
// entry that aliases scratch a later replay overwrites, fails here.

// audited runs f with the memo audit armed and fails the test on the
// first hit that differs from its fresh replay; it returns the hits.
func audited(t *testing.T, f func()) int {
	t.Helper()
	seen := core.AuditReplayMemo(true)
	defer core.AuditReplayMemo(false)
	f()
	hits, failure := seen()
	if failure != "" {
		t.Fatal(failure)
	}
	return hits
}

// sameUnderAudit compares an audited run with its unaudited twin: a
// sequential run repeats exactly, witness bytes included; parallel runs
// agree on what is schedule-independent (sameEnumeration); both agree
// on the verdict, the message and the counterexample.
func sameUnderAudit(t *testing.T, id string, clean, dirty *core.Result) {
	t.Helper()
	if clean.Verdict != dirty.Verdict || clean.Message != dirty.Message {
		t.Fatalf("%s: %v (%q) clean, %v (%q) audited", id, clean.Verdict, clean.Message, dirty.Verdict, dirty.Message)
	}
	if (clean.Witness == nil) != (dirty.Witness == nil) || witnessKey(clean) != witnessKey(dirty) {
		t.Fatalf("%s: counterexample changed under the audit", id)
	}
	if clean.Sched.Workers > 1 {
		if !sameEnumeration(clean, dirty) {
			t.Fatalf("%s: enumeration changed under the audit\nclean: %+v\ndirty: %+v", id, clean.Stats, dirty.Stats)
		}
		return
	}
	if clean.Stats != dirty.Stats {
		t.Fatalf("%s: sequential run changed under the audit\nclean: %+v\ndirty: %+v", id, clean.Stats, dirty.Stats)
	}
	if w := clean.Witness; w != nil && !bytes.Equal(graph.AppendGraph(nil, w), graph.AppendGraph(nil, dirty.Witness)) {
		t.Fatalf("%s: witness bytes changed under the audit", id)
	}
}

// TestSnapWitnessSurvives: a deciding state's children are never pushed,
// but the other workers of a parallel run finish their steps after it
// halts the run, serving replays from the same memo, and the one-worker
// rerun then reports it. The counterexample must come back identical
// from the sequential runs and from the parallel ones.
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
			clean := run(t, mm.WMM, p, workers, false)
			if clean.Witness == nil {
				t.Fatalf("%s: expected a violation, got %v", id, clean.Verdict)
			}
			audited(t, func() {
				dirty := run(t, mm.WMM, p, workers, false)
				if err := dirty.Witness.CheckInvariants(); err != nil {
					t.Fatalf("%s: malformed witness: %v", id, err)
				}
				sameUnderAudit(t, id, clean, dirty)
			})
		}
	}
}

// TestSnapHaltedStateResumes: the state a budget stop pushes back on its
// deque still carries its producer's results; the checkpoint's copy does
// not, and the resumed pop replays every thread. With a budget of one
// graph every state of the run takes that path once, and the segmented
// run must still repeat the uninterrupted one.
func TestSnapHaltedStateResumes(t *testing.T) {
	for _, p := range ckptCorpus() {
		seq, par := run(t, mm.WMM, p, 1, false), run(t, mm.WMM, p, 4, false)
		audited(t, func() {
			for _, budget := range []int64{1, 7, 50} {
				id := fmt.Sprintf("%s in segments of %d", p.Name, budget)
				res, _ := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: budget}, budget == 7)
				sameUnderAudit(t, id, seq, res)
				if budget > 1 {
					res, _ = runSegmented(t, mm.WMM, p, 4, core.Budget{MaxGraphs: budget}, false)
					sameUnderAudit(t, id+" at 4 workers", par, res)
				}
			}
		})
	}
}

// TestSnapCheckpointedFrontier: a periodic snapshot copies the frontier
// while the states in it keep their shared results and the run goes on;
// the copies carry none. Every snapshot must still encode, after the
// run, to the bytes it encoded to when taken, and two resumes from one
// in-memory snapshot — each with a memo of its own — must both reach the
// uninterrupted run's answer.
func TestSnapCheckpointedFrontier(t *testing.T) {
	mcs := locks.ByName("mcs")
	p := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	for _, workers := range []int{1, 4} {
		id := fmt.Sprintf("%s at %d workers", p.Name, workers)
		base := run(t, mm.WMM, p, workers, false)
		audited(t, func() {
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
			sameUnderAudit(t, id, base, c.Run(p))
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
