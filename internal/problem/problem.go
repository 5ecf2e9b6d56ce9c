// Package problem is the one place that knows the life of a
// verification problem: key → store → checkpoint → run → persist.
// vsync's Run, VerifyMatrix and Resume and the optimizer's candidate
// suites describe their problems, call Resolve, and shape the outcomes
// into their own result types; nothing else outside internal/store
// touches a store session's Lookup/Put/Refresh or a checkpoint file.
package problem

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/store"
	"repro/internal/vprog"
)

// Problem is one (model, program) pair to decide.
type Problem struct {
	Model mm.Model
	Prog  *vprog.Program
	// Key addresses the problem in the store and names its checkpoint
	// file. An empty Key.Model means unkeyed — no store, no checkpoint
	// directory, no caller-supplied key — and spares the fingerprint.
	Key  store.Key
	Name string           // with the model, the label of the store record
	Seed *core.Checkpoint // continue from here, not from the file
}

// Outcome is what Resolve learned about one problem. Res is the AMC
// run's own result for the problem that ran; store hits and problems
// served by an equal-key sibling's run get a synthetic result carrying
// the verdict (and the sibling's Err). Err reports a failed verdict
// append or checkpoint write — it never taints Res.
type Outcome struct {
	Res       *core.Result
	FromStore bool
	Deduped   bool
	Err       error
}

// Knobs are the engine settings Resolve reads; keys come with the
// problems and the concurrency bound with the caller's pool.
type Knobs struct {
	// Store, when non-nil, is consulted before any AMC work and
	// receives every decisive verdict computed.
	Store *store.Session
	// WorkersPerRun is taken as given: callers resolve their own zero
	// value (GOMAXPROCS for vsync, sequential for the optimizer).
	WorkersPerRun int
	NoSymmetry    bool
	Budget        core.Budget
	// CheckpointDir, when non-empty, checkpoints interrupted runs to
	// CheckpointPath files and resumes from them; CheckpointInterval
	// adds periodic snapshots.
	CheckpointDir      string
	CheckpointInterval time.Duration
}

// Key is the content address of verifying prog — built under spec —
// against model: what store records and checkpoint files are keyed by.
// A nil spec is the zero fingerprint, the address of self-contained
// programs (litmus tests) and of callers that do not know the
// BarrierSpec behind a program.
func Key(model mm.Model, spec *vprog.BarrierSpec, prog *vprog.Program) store.Key {
	var k store.Key
	k.Model = model.Name()
	if spec != nil {
		k.Spec = spec.Fingerprint128()
	}
	k.Prog = prog.Fingerprint128()
	return k
}

// CheckpointPath is the sidecar file a run keyed by key checkpoints to
// inside dir: content-addressed by the store key hash, so the same
// verification problem resumes its own frontier and nothing else's.
func CheckpointPath(dir string, key store.Key) string {
	h := key.Hash()
	return filepath.Join(dir, fmt.Sprintf("%016x%016x.ckpt", h[0], h[1]))
}

// Resolve decides every problem, in order of preference: from the
// store, from an equal-key sibling's run in this same call, from an AMC
// run. Runs go through pool, admitted in problem order. With failFast
// the first non-OK verdict, stored or computed, cancels what has not
// finished.
func Resolve(ctx context.Context, pool *core.Pool, probs []Problem, k Knobs, failFast bool) []Outcome {
	st := k.Store
	out := make([]Outcome, len(probs))
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
			if v, ok := st.Lookup(p.Key); ok {
				out[i] = Outcome{Res: &core.Result{Verdict: v}, FromStore: true}
				storedFailure = storedFailure || v != core.OK
				continue
			}
		}
		if p.Key.Model == "" {
			groups = append(groups, []int{i})
			continue
		}
		h := p.Key.Hash()
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
			if out[i].Res == nil {
				out[i].Res = &core.Result{Verdict: core.Canceled, Message: "canceled: stored verdict failed fail-fast"}
			}
		}
		return out
	}

	jobs := make([]core.Job, len(groups))
	for j, g := range groups {
		rep, sv := &probs[g[0]], &out[g[0]] // the slot records FromStore and Err
		c := core.New(rep.Model)
		c.WorkersPerRun = k.WorkersPerRun
		c.NoSymmetry = k.NoSymmetry
		ckpt := armCheckpoints(c, &k, rep)
		jobs[j] = core.Job{Checker: c, Program: rep.Prog, Wrap: func(run func() *core.Result) *core.Result {
			if st != nil {
				// Re-check on the slot, right before spending AMC work:
				// with two live suites on one store the other process may
				// have decided this problem while it queued. The Refresh
				// is an incremental tail re-scan, cheap when nothing
				// changed.
				st.Refresh()
				if v, ok := st.Lookup(rep.Key); ok {
					sv.FromStore = true
					return &core.Result{Verdict: v}
				}
			}
			r := run()
			// Persist the moment the run ends: an interrupted call keeps
			// everything it decided so far, including what finished
			// before a fail-fast cancellation.
			if st != nil {
				sv.Err = st.Put(rep.Key, r.Verdict, rep.Model.Name()+"/"+rep.Name)
			}
			if err := finishCheckpoint(ckpt, r); sv.Err == nil {
				sv.Err = err
			}
			return r
		}}
	}
	results := pool.RunAll(ctx, jobs, failFast)
	for j, g := range groups {
		r, sv := results[j], &out[g[0]]
		sv.Res = r
		for _, i := range g[1:] {
			out[i] = Outcome{Res: &core.Result{Verdict: r.Verdict, Err: r.Err}, FromStore: sv.FromStore, Deduped: !sv.FromStore, Err: sv.Err}
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
// caller-supplied seed outranks the file.
func armCheckpoints(c *core.Checker, k *Knobs, p *Problem) string {
	c.Budget = k.Budget
	c.Resume = p.Seed
	if k.CheckpointDir == "" {
		return ""
	}
	path := CheckpointPath(k.CheckpointDir, p.Key)
	c.CheckpointOnCancel = true
	if c.Resume == nil {
		if ck, err := core.LoadCheckpointFile(path); err == nil && ck.Epoch == store.CodeEpoch() {
			c.Resume = ck
		}
		// A checkpoint stamped by a different code epoch is ignored, not
		// an error: a frontier produced by different checker code is not
		// trustworthy even over the same program, and the fresh run will
		// overwrite it. Same stance the verdict store takes on stale
		// records.
	}
	if k.CheckpointInterval > 0 {
		c.CheckpointInterval = k.CheckpointInterval
		c.CheckpointSink = func(ck *core.Checkpoint) error {
			ck.Epoch = store.CodeEpoch()
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
		r.Checkpoint.Epoch = store.CodeEpoch()
		return core.WriteCheckpointFile(path, r.Checkpoint)
	}
	if r.Verdict == core.OK || r.Verdict == core.SafetyViolation || r.Verdict == core.ATViolation {
		os.Remove(path)
	}
	return nil
}
