package vsync

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/problem"
)

// Budget bounds one run segment: wall clock, popped exploration
// states, or process heap. A budget hit does not lose the work — the
// run drains cleanly and returns an Undecided result carrying a
// Checkpoint of the remaining frontier; resuming from it continues the
// exploration exactly where it stopped, with the same final verdict,
// statistics and counterexample an uninterrupted run would have
// produced. MaxDuration and MaxGraphs are per-segment (so every
// resumed segment gets a fresh allowance and the search always makes
// progress); MaxMemBytes is an absolute heap cap. MaxGraphs has no
// unbounded setting: zero means 2,000,000 pops per segment.
type Budget = core.Budget

// Checkpoint is the resumable remainder of an interrupted exploration:
// the unexplored frontier, the visited-set keys, cumulative counters,
// and the best violation found so far. It is self-contained — Resume
// needs only the checkpoint, the model, and the program — and survives
// crashes via WriteCheckpointFile/LoadCheckpointFile (atomic write,
// CRC-framed records, torn files refused entirely).
type Checkpoint = core.Checkpoint

// WriteCheckpointFile atomically persists a checkpoint (temp file +
// fsync + rename): the path either holds the complete new checkpoint
// or whatever it held before, never a torn mix.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	return core.WriteCheckpointFile(path, c)
}

// LoadCheckpointFile reads a checkpoint written by WriteCheckpointFile.
// Any damage — truncation, bit flips, trailing garbage — refuses the
// whole file: a partial frontier would silently unsound the search.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	return core.LoadCheckpointFile(path)
}

// CheckpointPath is the sidecar file a run keyed by key checkpoints to
// inside dir: content-addressed by the store key hash, so the same
// verification problem resumes its own frontier and nothing else's.
func CheckpointPath(dir string, key StoreKey) string {
	return problem.CheckpointPath(dir, key)
}

// Resume continues a checkpointed exploration of p under model. The
// result is what the interrupted run would eventually have returned —
// verdict, counterexample, and (for runs segmented purely by budget)
// statistics are identical to an uninterrupted run's. A checkpoint
// carrying a different model, program fingerprint, or (when stamped)
// code epoch is refused with an Error result. opts means what it means
// to Run for a single program — the same problem lifecycle serves both:
// opts.StoreKeys[0], when given, is the key the interrupted Run used
// (it names the checkpoint file in CheckpointDir that a decisive
// verdict retires), and a Store is consulted and warmed. A failed
// verdict append or checkpoint write cannot change the verdict; it is
// reported in Result.Err when the run left that empty.
func Resume(model Model, p *Program, ck *Checkpoint, opts RunOptions) *Result {
	return ResumeCtx(context.Background(), model, p, ck, opts)
}

// ResumeCtx is Resume with cooperative cancellation.
func ResumeCtx(ctx context.Context, model Model, p *Program, ck *Checkpoint, opts RunOptions) *Result {
	if ck == nil {
		return &Result{Verdict: core.Error, Err: fmt.Errorf("vsync: Resume: nil checkpoint")}
	}
	if ck.Epoch != (graph.Hash128{}) && ck.Epoch != StoreCodeEpoch() {
		// An epoch was stamped (the vsync layer always stamps); a
		// frontier produced by different checker code is not trustworthy
		// even over the same program.
		return &Result{Verdict: core.Error, Err: fmt.Errorf(
			"vsync: Resume: checkpoint code epoch %016x%016x does not match this build (%016x%016x); re-verify from scratch",
			ck.Epoch[0], ck.Epoch[1], StoreCodeEpoch()[0], StoreCodeEpoch()[1])}
	}
	probs := opts.problems(model, []*Program{p})
	probs[0].Seed = ck
	opts.Parallelism = 1
	o := resolve(ctx, probs, opts, false)[0]
	if o.Res.Err == nil {
		o.Res.Err = o.Err
	}
	return o.Res
}
