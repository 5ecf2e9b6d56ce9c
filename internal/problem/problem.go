// Package problem is the one place that knows the life of a
// verification problem: key → store → checkpoint → run → persist.
// vsync's Run and VerifyMatrix and the optimizer's candidate suites
// describe their problems, call Resolve, and shape the outcomes into
// their own result types; nothing else outside internal/store touches
// a store session's Lookup/Put/Refresh or a checkpoint file, and
// nothing else schedules whole runs: Resolve takes a slot of its Pool
// for each run.
package problem

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
	Name string // with the model, the label of the store record
}

// Outcome is what Resolve learned about one problem. Res is the AMC
// run's own result for the problem that ran; store hits and problems
// served by an equal-key sibling's run get a synthetic result carrying
// the verdict (and the sibling's Err). Err reports a failed verdict
// append or checkpoint write and never taints Res; a verdict conflict
// is not one (see decide).
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
	// WorkersPerRun is each run's own worker count (core.Checker's:
	// zero or one is one worker).
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
// run. Runs take their slots of pool in problem order. With failFast
// the first non-OK verdict, stored or computed, cancels what has not
// finished.
func Resolve(ctx context.Context, pool *Pool, probs []Problem, k Knobs, failFast bool) []Outcome {
	st := k.Store
	out := make([]Outcome, len(probs))
	if st != nil {
		// The session is shared: observe verdicts concurrent processes
		// appended since its last scan. Best-effort — a closed or
		// unreadable store degrades to memory-only lookups and surfaces
		// through the Put in decide.
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
				out[i].Res = notStarted()
			}
		}
		return out
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, g := range groups {
		// The submitting loop takes each group's slot before its
		// goroutine starts, so a one-slot pool runs them strictly in
		// problem order.
		rep, o := &probs[g[0]], &out[g[0]]
		slot, ok := pool.acquire(ctx)
		if !ok {
			o.Res = notStarted()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			decide(ctx, rep, &k, o)
			// Cancel before the slot is free again, or the next run in
			// line could start what the failure has already doomed.
			if failFast && o.Res.Verdict.Outranks(core.Canceled) {
				cancel()
			}
			pool.release(slot, time.Since(t0), o.Res)
		}()
	}
	wg.Wait()
	for _, g := range groups {
		o := &out[g[0]]
		for _, i := range g[1:] {
			out[i] = Outcome{Res: &core.Result{Verdict: o.Res.Verdict, Err: o.Res.Err}, FromStore: o.FromStore, Deduped: !o.FromStore, Err: o.Err}
		}
	}
	return out
}

// Decider returns the index of the outcome that decides a suite: the
// one whose verdict outranks the others' (core.Verdict.Outranks), the
// lowest index among equals, or -1 when every problem verified.
func Decider(outs []Outcome) int {
	d, worst := -1, core.OK
	for i, o := range outs {
		if v := o.Res.Verdict; v.Outranks(worst) {
			d, worst = i, v
		}
	}
	return d
}

// decide resolves one problem on its slot. It re-checks the store
// right before spending AMC work — with two live suites on one store
// the other process may have decided the problem while it queued (the
// Refresh is an incremental tail re-scan, cheap when nothing changed)
// — and otherwise runs it and persists the verdict the moment the run
// ends: an interrupted call keeps everything it decided so far,
// including what finished before a fail-fast cancellation. A verdict
// the store contradicts means the keying broke, so neither can be
// trusted: Res becomes an Error carrying the conflict, with no witness.
func decide(ctx context.Context, p *Problem, k *Knobs, o *Outcome) {
	st := k.Store
	if st != nil {
		st.Refresh()
		if v, ok := st.Lookup(p.Key); ok {
			o.Res, o.FromStore = &core.Result{Verdict: v}, true
			return
		}
	}
	c := core.New(p.Model)
	c.WorkersPerRun = k.WorkersPerRun
	c.NoSymmetry = k.NoSymmetry
	path := armCheckpoints(c, k, p)
	o.Res = c.RunCtx(ctx, p.Prog)
	if st != nil {
		o.Err = st.Put(p.Key, o.Res.Verdict, p.Model.Name()+"/"+p.Name)
		if errors.Is(o.Err, store.ErrConflict) {
			o.Res = &core.Result{Verdict: core.Error, Err: o.Err, Duration: o.Res.Duration}
			o.Err = nil
		}
	}
	if err := finishCheckpoint(path, o.Res); o.Err == nil {
		o.Err = err
	}
}

// armCheckpoints wires one checker for budgeted, resumable execution
// and returns the problem's checkpoint path ("" when no directory is
// configured). With a directory, a cancellation (SIGINT in the CLIs)
// also snapshots instead of discarding, an existing compatible
// checkpoint seeds the run, and an interval additionally snapshots
// periodically so even kill -9 loses at most one interval of work. The
// file is read here, on the run's slot, when the run starts.
func armCheckpoints(c *core.Checker, k *Knobs, p *Problem) string {
	c.Budget = k.Budget
	if k.CheckpointDir == "" {
		return ""
	}
	path := CheckpointPath(k.CheckpointDir, p.Key)
	c.CheckpointOnCancel = true
	if ck, err := core.LoadCheckpointFile(path); err == nil && ck.Epoch == store.CodeEpoch() {
		c.Resume = ck
	}
	// A checkpoint stamped by a different code epoch is ignored, not an
	// error: a frontier produced by different checker code is not
	// trustworthy even over the same program, and the fresh run will
	// overwrite it. Same stance the verdict store takes on stale records.
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
	if r.Verdict.Decisive() {
		os.Remove(path)
	}
	return nil
}
