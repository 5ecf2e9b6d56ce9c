package structs_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/structs"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// awaitDiff is the await-encoding instance of the differential bar
// (pattern: internal/core's TestSymDifferential): the await encoding of a structure
// must reach the same verdict as its bounded-loop twin — at 1, 2 and 4
// workers — and must never enumerate more popped states than the twin.
// The twin runs once at one worker; its verdict is the oracle.
func awaitDiff(t *testing.T, await, bounded *vprog.Program, wantOK bool) {
	t.Helper()
	oracle := runAt(t, bounded, 1, false)
	for _, workers := range []int{1, 2, 4} {
		res := runAt(t, await, workers, false)
		if res.Verdict != oracle.Verdict {
			t.Fatalf("%s (workers=%d): verdict %v, but bounded twin %s says %v",
				await.Name, workers, res.Verdict, bounded.Name, oracle.Verdict)
		}
		if res.Verdict != core.OK {
			if res.Witness == nil {
				t.Fatalf("%s (workers=%d): violation without a witness", await.Name, workers)
			} else if err := res.Witness.CheckInvariants(); err != nil {
				t.Fatalf("%s (workers=%d): malformed witness: %v", await.Name, workers, err)
			}
		}
		if workers == 1 && res.Stats.Popped > oracle.Stats.Popped {
			t.Errorf("%s: await encoding popped %d states, MORE than the bounded twin's %d",
				await.Name, res.Stats.Popped, oracle.Stats.Popped)
		}
	}
	if wantOK && oracle.Verdict != core.OK {
		t.Fatalf("%s: want OK, got %v: %s", bounded.Name, oracle.Verdict, oracle.Message)
	}
	if !wantOK && oracle.Verdict == core.OK {
		t.Fatalf("%s: seeded bug was not caught", bounded.Name)
	}
}

// pair builds the await and bounded programs of one twin at nthreads.
func pair(aw, bw workload.Workload, nthreads int) (*vprog.Program, *vprog.Program) {
	return workload.Program(aw, nil, nthreads), workload.Program(bw, nil, nthreads)
}

// TestAwaitDifferentialVerdicts pins the await-encoded structures to
// their bounded-loop twins at the verdict level, good and seeded-bug
// variants alike. This is the continuous form of the PR's differential
// oracle: the bounded encodings enumerate every retry chain explicitly,
// so agreement here checks both the retry-free-twin collapse and the
// ⊥-gating against an encoding that uses neither.
func TestAwaitDifferentialVerdicts(t *testing.T) {
	aw, bw := pair(structs.Treiber(1), structs.TreiberBounded(1), 2)
	awaitDiff(t, aw, bw, true)
	aw, bw = pair(structs.TreiberBadPop(1), structs.TreiberBadPopBounded(1), 2)
	awaitDiff(t, aw, bw, false)
	aw, bw = pair(structs.MSQueue(2), structs.MSQueueBounded(2), 2)
	awaitDiff(t, aw, bw, true)
	aw, bw = pair(structs.MSQueueBadLink(), structs.MSQueueBadLinkBounded(), 2)
	awaitDiff(t, aw, bw, false)
}

// TestAwaitDifferentialTreiberT3 is the acceptance cell: at t=3 the
// await encoding must both agree with the bounded twin and pop at most
// half as many states — the reduction the await constructs exist to
// deliver. Multi-second; skipped in -short.
func TestAwaitDifferentialTreiberT3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exploration; not run in -short")
	}
	aw, bw := pair(structs.Treiber(1), structs.TreiberBounded(1), 3)
	await := runAt(t, aw, 1, false)
	bounded := runAt(t, bw, 1, false)
	if await.Verdict != bounded.Verdict {
		t.Fatalf("t3 verdicts diverge: await %v, bounded %v", await.Verdict, bounded.Verdict)
	}
	if 2*await.Stats.Popped > bounded.Stats.Popped {
		t.Errorf("await popped %d states, want <= half of bounded's %d",
			await.Stats.Popped, bounded.Stats.Popped)
	}
	t.Logf("treiber t3: await %d popped vs bounded %d (%.1fx)",
		await.Stats.Popped, bounded.Stats.Popped,
		float64(bounded.Stats.Popped)/float64(await.Stats.Popped))
}
