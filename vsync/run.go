package vsync

import (
	"context"
	"time"

	"repro/internal/core"
)

// RunOptions parameterizes Run, the single entry point for verifying
// programs. The zero value verifies on every CPU: GOMAXPROCS runs at a
// time, each sharing its frontier among as many workers, no store.
type RunOptions struct {
	// Parallelism bounds concurrent AMC runs (0 = GOMAXPROCS,
	// 1 = one run at a time).
	Parallelism int
	// WorkersPerRun shares each run's exploration frontier among up to
	// this many workers (0 = GOMAXPROCS, 1 = sequential). The verdict
	// is identical at every worker count; see Run for the statistics
	// fine print.
	WorkersPerRun int
	// CollectResults retains every program's individual result (and
	// its per-program store provenance) on the RunResult; off, only
	// the reduced Result/Failed pair is kept.
	CollectResults bool
	// Store, when non-nil, is consulted before any AMC work — a stored
	// verdict serves its program without a run — and receives every
	// decisive verdict this run computes. The session is shared: a
	// Refresh first observes verdicts concurrent processes stored.
	Store *VerdictStore
	// StoreKeys, when non-nil, supplies the store key per program
	// (parallel to the programs slice; callers that know the
	// BarrierSpec behind a program pass ProblemKey(model, spec, p)). Nil
	// keys each program by ProblemKey(model, nil, p) — sound, but a
	// different address than spec-aware callers use.
	StoreKeys []StoreKey
	// NoSymmetry disables thread-symmetry reduction
	// (core.Checker.NoSymmetry): programs declaring symmetric thread
	// groups are explored without collapsing relabeled states. The
	// verdict is identical either way — this is the differential oracle
	// and a diagnostic knob, not a correctness choice. Note that
	// checkpoints record the setting and resume only under the same one.
	NoSymmetry bool
	// Budget bounds each AMC run segment (wall clock; popped graphs,
	// 2,000,000 when zero; heap). A budget hit returns Undecided with a
	// Checkpoint instead of losing the work; see Budget and Resume.
	Budget Budget
	// CheckpointDir, when non-empty, makes runs crash-safe: each
	// program checkpoints to a content-addressed file in this directory
	// on budget exhaustion and on cancellation, and a compatible
	// checkpoint found there seeds the run (resume). Decisive verdicts
	// retire their file. The directory must exist.
	CheckpointDir string
	// CheckpointInterval additionally snapshots the live frontier to
	// CheckpointDir at this cadence, so even an uncancellable crash
	// (kill -9, power loss) loses at most one interval of work. Zero
	// disables periodic snapshots; requires CheckpointDir.
	CheckpointInterval time.Duration
}

// RunResult is the outcome of one Run call.
type RunResult struct {
	// Result reduces the run: the lowest-indexed decisive failure, or
	// an OK result aggregating every program's statistics (and the
	// slowest run's wall time) when all verify.
	Result *Result
	// Failed is the index of the program Result refers to, -1 when
	// every program verified.
	Failed int
	// Results holds each program's individual result, in program
	// order, when RunOptions.CollectResults is set (nil otherwise).
	// Programs canceled by the fail-fast report Canceled; programs
	// served by the store, or by the run of an earlier program with an
	// equal key, report a synthetic result carrying only the verdict.
	Results []*Result
	// FromStore marks, parallel to Results, the programs whose verdict
	// was served by the store (only with CollectResults).
	FromStore []bool
	// StoreHits counts programs served by the store.
	StoreHits int
	// StoreErr is the first failed store append, or nil. Append
	// failures never taint a verdict — the run is sound, it just is
	// not warming the store (a conflict error, errors.Is ErrConflict,
	// additionally means the keying broke; see VerdictStore.Put).
	StoreErr error
}

// Run model-checks programs under model: each program is one problem
// taken through the package's single lifecycle (key → store →
// checkpoint → run → persist, see engine.go), the AMC runs fanned out
// across a worker pool in program order with fail-fast cancellation.
// Programs whose keys are equal are one problem and share one run.
//
// Single-program runs with Parallelism 1 execute the checker
// standalone, so WorkersPerRun > 1 spawns that run's own worker set;
// everything else goes through a core.Pool, where extra workers arrive
// by borrowing idle slots. The verdict always agrees with the
// sequential explorer; among parallel runs (WorkersPerRun > 1) the
// execution count and counterexample are additionally identical at
// every worker count, because they explore to completion and merge
// deterministically — the sequential explorer instead stops at its
// first DFS counterexample, so on violating programs its statistics
// and witness reflect that partial search.
func Run(model Model, programs []*Program, opts RunOptions) *RunResult {
	return RunCtx(context.Background(), model, programs, opts)
}

// problems pairs programs with their keys: the caller's, or — only when
// a store or a checkpoint directory needs an address — the spec-less
// ProblemKey.
func (opts *RunOptions) problems(model Model, programs []*Program) []problem {
	keyed := opts.Store != nil || opts.CheckpointDir != ""
	probs := make([]problem, len(programs))
	for i, p := range programs {
		probs[i] = problem{model: model, prog: p, name: p.Name}
		if i < len(opts.StoreKeys) {
			probs[i].key = opts.StoreKeys[i]
		} else if keyed {
			probs[i].key = ProblemKey(model, nil, p)
		}
	}
	return probs
}

// RunCtx is Run with cooperative cancellation: canceling ctx stops
// pending and running AMC work, which reports Canceled.
func RunCtx(ctx context.Context, model Model, programs []*Program, opts RunOptions) *RunResult {
	outs := resolve(ctx, opts.problems(model, programs), opts, true)
	rr := &RunResult{Failed: -1}
	results := make([]*Result, len(outs))
	fromStore := make([]bool, len(outs))
	for i, o := range outs {
		results[i], fromStore[i] = o.res, o.fromStore
		if o.fromStore {
			rr.StoreHits++
		}
		if o.err != nil && rr.StoreErr == nil {
			rr.StoreErr = o.err
		}
	}
	if opts.CollectResults {
		rr.Results, rr.FromStore = results, fromStore
	}

	// Reduce: the lowest-indexed decisive failure wins; then an
	// undecided run (its result carries the checkpoint to resume from);
	// then a cancellation; else aggregate OK.
	rank := map[Verdict]int{Canceled: 1, Undecided: 2, SafetyViolation: 3, ATViolation: 3, core.Error: 3}
	worst := 0
	for i, r := range results {
		if k := rank[r.Verdict]; k > worst {
			worst, rr.Result, rr.Failed = k, r, i
		}
	}
	if rr.Failed >= 0 {
		return rr
	}
	agg := &Result{Verdict: core.OK}
	for _, r := range results {
		agg.Stats.Add(r.Stats)
		agg.Sched.Accumulate(r.Sched)
		if r.Duration > agg.Duration {
			agg.Duration = r.Duration // wall clock ≈ the slowest run
		}
	}
	rr.Result = agg
	return rr
}
