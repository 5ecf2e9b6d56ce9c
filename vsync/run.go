package vsync

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/problem"
)

// RunOptions parameterizes Run, the single entry point for verifying
// programs. The zero value runs GOMAXPROCS programs at a time, each on
// one worker (the sequential explorer), with no store.
type RunOptions struct {
	// Parallelism bounds concurrent AMC runs (0 = GOMAXPROCS,
	// 1 = one run at a time).
	Parallelism int
	// WorkersPerRun shares each run's exploration frontier among this
	// many workers of its own (0 or 1 = one worker, the sequential
	// explorer). A call runs at most Parallelism × WorkersPerRun
	// workers at once. The verdict is identical at every worker count;
	// see Run for the statistics fine print.
	WorkersPerRun int
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
	// Checkpoint instead of losing the work; see Budget and
	// CheckpointDir.
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

// Budget bounds one run segment: wall clock, popped exploration
// states, or process heap. A budget hit does not lose the work — the
// run drains cleanly and returns an Undecided result carrying a
// Checkpoint of the remaining frontier; with RunOptions.CheckpointDir
// the next run of the same problem resumes from it, continuing the
// exploration exactly where it stopped, with the same final verdict,
// statistics and counterexample an uninterrupted run would have
// produced. MaxDuration and MaxGraphs are per-segment (so every
// resumed segment gets a fresh allowance and the search always makes
// progress); MaxMemBytes is an absolute heap cap. MaxGraphs has no
// unbounded setting: zero means 2,000,000 pops per segment.
type Budget = core.Budget

// Checkpoint is the resumable remainder of an interrupted exploration:
// the unexplored frontier, the visited-set keys, cumulative counters,
// and the best violation found so far. An Undecided Result carries
// one; RunOptions.CheckpointDir is where runs persist theirs (atomic
// write, CRC-framed records, torn files refused entirely) and the one
// way to resume: a run finds its problem's file there by key. A file
// from another code epoch is ignored and overwritten by the fresh run.
type Checkpoint = core.Checkpoint

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
	// order. Programs canceled by the fail-fast report Canceled; programs
	// served by the store, or by the run of an earlier program with an
	// equal key, report a synthetic result carrying only the verdict.
	Results []*Result
	// FromStore marks, parallel to Results, the programs whose verdict
	// was served by the store.
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
// taken through the single problem lifecycle (key → store → checkpoint
// → run → persist, see internal/problem), the AMC runs fanned out
// across a worker pool in program order with fail-fast cancellation.
// Programs whose keys are equal are one problem and share one run.
//
// Every run holds one of Parallelism pool slots (internal/problem
// schedules the runs) and staffs its own WorkersPerRun workers up
// front: a call runs at most Parallelism × WorkersPerRun workers at
// once. The verdict always agrees with the sequential explorer; among
// parallel runs (WorkersPerRun > 1) the execution count and
// counterexample are additionally identical at every worker count,
// because they explore to completion and merge deterministically — the
// sequential explorer instead stops at its first DFS counterexample,
// so on violating programs its statistics and witness reflect that
// partial search.
func Run(model Model, programs []*Program, opts RunOptions) *RunResult {
	return RunCtx(context.Background(), model, programs, opts)
}

// ProblemKey is the content address of verifying prog — built under
// spec — against model: what VerdictStore records and checkpoint files
// are keyed by. A nil spec is the zero fingerprint, the address of
// self-contained programs (litmus tests) and of callers that do not
// know the BarrierSpec behind a program.
func ProblemKey(model Model, spec *BarrierSpec, prog *Program) StoreKey {
	return problem.Key(model, spec, prog)
}

// problems pairs programs with their keys: the caller's, or — only when
// a store or a checkpoint directory needs an address — the spec-less
// ProblemKey.
func (opts *RunOptions) problems(model Model, programs []*Program) []problem.Problem {
	keyed := opts.Store != nil || opts.CheckpointDir != ""
	probs := make([]problem.Problem, len(programs))
	for i, p := range programs {
		probs[i] = problem.Problem{Model: model, Prog: p, Name: p.Name}
		if i < len(opts.StoreKeys) {
			probs[i].Key = opts.StoreKeys[i]
		} else if keyed {
			probs[i].Key = ProblemKey(model, nil, p)
		}
	}
	return probs
}

// resolve takes probs through the problem lifecycle on a pool of
// opts.Parallelism slots. Of opts it reads the engine knobs only; keys
// come with the problems.
func resolve(ctx context.Context, probs []problem.Problem, opts RunOptions, failFast bool) []problem.Outcome {
	return problem.Resolve(ctx, problem.NewPool(opts.Parallelism), probs, problem.Knobs{
		Store:              opts.Store,
		WorkersPerRun:      opts.WorkersPerRun,
		NoSymmetry:         opts.NoSymmetry,
		Budget:             opts.Budget,
		CheckpointDir:      opts.CheckpointDir,
		CheckpointInterval: opts.CheckpointInterval,
	}, failFast)
}

// RunCtx is Run with cooperative cancellation: canceling ctx stops
// pending and running AMC work, which reports Canceled.
func RunCtx(ctx context.Context, model Model, programs []*Program, opts RunOptions) *RunResult {
	outs := resolve(ctx, opts.problems(model, programs), opts, true)
	rr := &RunResult{Failed: -1, Results: make([]*Result, len(outs)), FromStore: make([]bool, len(outs))}
	for i, o := range outs {
		rr.Results[i], rr.FromStore[i] = o.Res, o.FromStore
		if o.FromStore {
			rr.StoreHits++
		}
		if o.Err != nil && rr.StoreErr == nil {
			rr.StoreErr = o.Err
		}
	}

	// Reduce: the lowest-indexed decisive failure wins; then an
	// undecided run (its result carries the checkpoint to resume from);
	// then a cancellation; else aggregate OK.
	rank := map[Verdict]int{Canceled: 1, Undecided: 2, SafetyViolation: 3, ATViolation: 3, core.Error: 3}
	worst := 0
	for i, r := range rr.Results {
		if k := rank[r.Verdict]; k > worst {
			worst, rr.Result, rr.Failed = k, r, i
		}
	}
	if rr.Failed >= 0 {
		return rr
	}
	agg := &Result{Verdict: core.OK}
	for _, r := range rr.Results {
		agg.Stats.Add(r.Stats)
		agg.Sched.Accumulate(r.Sched)
		if r.Duration > agg.Duration {
			agg.Duration = r.Duration // wall clock ≈ the slowest run
		}
	}
	rr.Result = agg
	return rr
}
