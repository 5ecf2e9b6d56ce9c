package vsync

import (
	"context"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file is the one place that knows the life of a verification
// problem: key → store → checkpoint → run → persist. Run, VerifyMatrix
// and Resume describe their problems, call resolve, and shape the
// outcomes into their own result types; nothing else in the package
// touches the store's Lookup/Put/Refresh or a checkpoint file.

// problem is one (model, program) pair to decide.
type problem struct {
	model Model
	prog  *Program
	// key addresses the problem in the store and names its checkpoint
	// file. An empty key.Model means unkeyed — no store, no checkpoint
	// directory, no caller-supplied key — and spares the fingerprint.
	key  StoreKey
	name string      // with the model, the label of the store record
	seed *Checkpoint // Resume: continue from here, not from the file
}

// outcome is what resolve learned about one problem. res is the AMC
// run's own result for the problem that ran; store hits and problems
// served by an equal-key sibling's run get a synthetic result carrying
// the verdict (and the sibling's Err). err reports a failed verdict
// append or checkpoint write — it never taints res.
type outcome struct {
	res       *Result
	fromStore bool
	deduped   bool
	err       error
}

// ProblemKey is the content address of verifying prog — built under
// spec — against model: what VerdictStore records and checkpoint files
// are keyed by. A nil spec is the zero fingerprint, the address of
// self-contained programs (litmus tests) and of callers that do not
// know the BarrierSpec behind a program.
func ProblemKey(model Model, spec *BarrierSpec, prog *Program) StoreKey {
	var k StoreKey
	k.Model = model.Name()
	if spec != nil {
		k.Spec = spec.Fingerprint128()
	}
	k.Prog = prog.Fingerprint128()
	return k
}

// resolve decides every problem, in order of preference: from the store,
// from an equal-key sibling's run in this same call, from an AMC run.
// Runs go through one core.Pool bounded by opts.Parallelism, admitted in
// problem order. With failFast the first non-OK verdict, stored or
// computed, cancels what has not finished. Of opts, resolve reads the
// engine knobs only; keys come with the problems.
func resolve(ctx context.Context, probs []problem, opts RunOptions, failFast bool) []outcome {
	if opts.WorkersPerRun <= 0 {
		// The checker itself clamps <1 to sequential, which is not what
		// the documented "0 = GOMAXPROCS" promises.
		opts.WorkersPerRun = runtime.GOMAXPROCS(0)
	}
	st := opts.Store
	out := make([]outcome, len(probs))
	if st != nil {
		// The session is shared: observe verdicts concurrent processes
		// appended since its last scan. Best-effort — a closed or
		// unreadable store degrades to memory-only lookups and surfaces
		// through the Put below.
		st.Refresh()
	}

	// Problems with equal keys are the same problem (a litmus test whose
	// weak and strong variants generate one program): one run serves the
	// group — the intra-call analogue of a store hit.
	var groups [][]int
	byKey := make(map[graph.Hash128]int)
	storedFailure := false
	for i := range probs {
		p := &probs[i]
		if st != nil {
			if v, ok := st.Lookup(p.key); ok {
				out[i] = outcome{res: &Result{Verdict: v}, fromStore: true}
				storedFailure = storedFailure || v != OK
				continue
			}
		}
		if p.key.Model == "" {
			groups = append(groups, []int{i})
			continue
		}
		h := p.key.Hash()
		j, seen := byKey[h]
		if !seen {
			j = len(groups)
			byKey[h] = j
			groups = append(groups, nil)
		}
		groups[j] = append(groups[j], i)
	}
	if failFast && storedFailure {
		// A stored failure fails the call before any AMC work.
		for i := range out {
			if out[i].res == nil {
				out[i].res = &Result{Verdict: Canceled, Message: "canceled: stored verdict failed fail-fast"}
			}
		}
		return out
	}

	jobs := make([]core.Job, len(groups))
	for j, g := range groups {
		rep, sv := &probs[g[0]], &out[g[0]] // the slot records fromStore and err
		c := core.New(rep.model)
		c.WorkersPerRun = opts.WorkersPerRun
		c.NoSymmetry = opts.NoSymmetry
		ckpt := armCheckpoints(c, &opts, rep)
		jobs[j] = core.Job{Checker: c, Program: rep.prog, Wrap: func(run func() *Result) *Result {
			if st != nil {
				// Re-check on the slot, right before spending AMC work:
				// with two live suites on one store the other process may
				// have decided this problem while it queued. The Refresh
				// is an incremental tail re-scan, cheap when nothing
				// changed.
				st.Refresh()
				if v, ok := st.Lookup(rep.key); ok {
					sv.fromStore = true
					return &Result{Verdict: v}
				}
			}
			r := run()
			// Persist the moment the run ends: an interrupted call keeps
			// everything it decided so far, including what finished
			// before a fail-fast cancellation.
			if st != nil {
				sv.err = st.Put(rep.key, r.Verdict, rep.model.Name()+"/"+rep.name)
			}
			if err := finishCheckpoint(ckpt, r); sv.err == nil {
				sv.err = err
			}
			return r
		}}
	}
	results := core.NewPool(opts.Parallelism).RunAll(ctx, jobs, failFast)
	for j, g := range groups {
		r, sv := results[j], &out[g[0]]
		sv.res = r
		for _, i := range g[1:] {
			out[i] = outcome{res: &Result{Verdict: r.Verdict, Err: r.Err}, fromStore: sv.fromStore, deduped: !sv.fromStore, err: sv.err}
		}
	}
	return out
}

// armCheckpoints wires one checker for budgeted, resumable execution
// and returns the problem's checkpoint path ("" when no directory is
// configured). With a directory, a cancellation (SIGINT in the CLIs)
// also snapshots instead of discarding, an existing compatible
// checkpoint seeds the run, and an interval additionally snapshots
// periodically so even kill -9 loses at most one interval of work. A
// caller-supplied seed (Resume) outranks the file.
func armCheckpoints(c *core.Checker, opts *RunOptions, p *problem) string {
	c.Budget = opts.Budget
	c.Resume = p.seed
	if opts.CheckpointDir == "" {
		return ""
	}
	path := CheckpointPath(opts.CheckpointDir, p.key)
	c.CheckpointOnCancel = true
	if c.Resume == nil {
		if ck, err := core.LoadCheckpointFile(path); err == nil && ck.Epoch == StoreCodeEpoch() {
			c.Resume = ck
		}
		// A checkpoint stamped by a different code epoch is ignored, not
		// an error: a frontier produced by different checker code is not
		// trustworthy even over the same program, and the fresh run will
		// overwrite it. Same stance the verdict store takes on stale
		// records.
	}
	if opts.CheckpointInterval > 0 {
		c.CheckpointInterval = opts.CheckpointInterval
		c.CheckpointSink = func(ck *core.Checkpoint) error {
			ck.Epoch = StoreCodeEpoch()
			return core.WriteCheckpointFile(path, ck)
		}
	}
	return path
}

// finishCheckpoint persists or retires the checkpoint file after a
// run. Undecided results write their final frontier (replacing any
// periodic snapshot, which is by now behind); decisive verdicts retire
// the file — the problem is solved, resuming it would be wasted work.
// Error and Canceled leave any existing file alone: the frontier on
// disk is still the best known resume point.
func finishCheckpoint(path string, r *core.Result) error {
	if path == "" {
		return nil
	}
	if r.Verdict == core.Undecided && r.Checkpoint != nil {
		r.Checkpoint.Epoch = StoreCodeEpoch()
		return core.WriteCheckpointFile(path, r.Checkpoint)
	}
	if r.Verdict == OK || r.Verdict == SafetyViolation || r.Verdict == ATViolation {
		os.Remove(path)
	}
	return nil
}
