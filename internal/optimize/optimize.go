// Package optimize implements VSync's push-button barrier optimization
// (§3.3): starting from a verified barrier assignment (typically the
// all-SC baseline), it relaxes each barrier point to the weakest mode
// under which the client programs still verify — safety, mutual
// exclusion and await termination all checked by AMC on every
// candidate. Standalone fences may be eliminated entirely (ModeNone),
// reproducing the paper's finding that e.g. the DPDK fence at Fig. 13
// line 32 is useless.
//
// The search is the greedy per-point descent used in practice: for each
// point, in registration order, try the candidate modes from weakest to
// strongest and keep the weakest verified one. The paper notes that
// multiple maximally-relaxed combinations exist; the greedy result is
// one of them.
//
// Candidates are tried one at a time, at every engine setting. The
// independent AMC runs of one candidate are what runs concurrently, on
// two axes that never change the result: the client programs of the
// candidate spec fan out across the run pool internal/problem schedules
// on (a failing program cancels its siblings), and with WorkersPerRun >
// 1 every run additionally shares its exploration frontier among that
// many workers of its own (intra-run work stealing). Every
// candidate's suite is decided through internal/problem, the lifecycle
// vsync.Run uses: a store session (Cache, in memory or on disk) serves
// the problems already judged, so multi-pass descents never re-verify
// an assignment; within one candidate there is one run per distinct
// problem — client programs with equal fingerprints share it — and the
// runs start cheapest first, so the program most likely to refute a
// candidate is also the first to try.
package optimize

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/problem"
	"repro/internal/store"
	"repro/internal/vprog"
)

// Step records one attempted relaxation. Accepted does not depend on
// the order the suite's programs ran in; the Verdict of a candidate
// that several programs refute names the violation of whichever ran
// first, the cheapest as a rule, and may be either.
type Step struct {
	Point    string
	Tried    vprog.Mode
	Accepted bool
	Verdict  core.Verdict
	Duration time.Duration
}

// Result is the outcome of an optimization run.
type Result struct {
	// Initial and Final are the starting and optimized specs.
	Initial, Final *vprog.BarrierSpec
	// Steps lists every attempted relaxation in order.
	Steps []Step
	// Verifications counts spec-level verification attempts, including
	// the initial check.
	Verifications int
	// CacheLookups counts the problems probed in the Cache before any
	// run (zero when the optimizer has no Cache); CacheHits counts those
	// it served. A budget-stopped or errored problem is never stored, so
	// its re-probe is a miss and runs again.
	CacheHits, CacheLookups int
	// Deduped counts programs served by the run of an equal-fingerprint
	// sibling in the same suite; Skipped counts runs never started
	// because a cheaper run or a stored verdict had already refuted the
	// candidate.
	Deduped, Skipped int
	// StoreErr is the first failed Cache append (a disk error), or
	// nil. It never taints a verdict, but a run believed to be warming
	// a store on disk persisted less than it decided. A verdict the
	// Cache contradicts is not a StoreErr: it is an Error outcome, and
	// the run fails with an error wrapping store.ErrConflict.
	StoreErr error
	// Workers is the AMC concurrency the run used (1 = sequential).
	Workers int
	// Pool is the run-pool accounting: per-slot busy time and run
	// counts, and how many runs the fail-fast short-circuit canceled.
	// Zero-valued for sequential runs.
	Pool problem.PoolStats
	// Duration is the total wall time — the paper's Table 1 "Time"
	// column (11 minutes for qspinlock on their setup).
	Duration time.Duration
}

// Counts returns the mode tally of the optimized spec (Table 1 shape).
func (r *Result) Counts() vprog.ModeCounts { return r.Final.Counts() }

// Changed renders the accepted relaxations, Fig. 20 style.
func (r *Result) Changed() string { return r.Initial.Diff(r.Final) }

// Optimizer drives the relaxation search.
type Optimizer struct {
	// Model is the memory model to verify against (the paper uses IMM;
	// we use its WMM stand-in by default).
	Model mm.Model
	// Programs builds the client programs that must verify for a spec to
	// be accepted; for a lock, LockSuite.
	Programs func(spec *vprog.BarrierSpec) []*vprog.Program
	// Passes caps the number of full point sweeps (0 or 1 = single
	// pass). Because the greedy descent is order-dependent, a point
	// rejected early can become relaxable after later points settle;
	// additional passes run until a fixpoint or the cap.
	Passes int
	// Parallelism bounds the number of concurrent AMC runs a candidate's
	// client programs fan out across (the first failure cancels the
	// rest): 0 selects GOMAXPROCS, 1 runs them one after another. The
	// final spec is identical either way.
	Parallelism int
	// WorkersPerRun, when > 1, lets every AMC run of the search share
	// its exploration frontier among that many workers of its own
	// (intra-run work stealing); zero or one is one worker per run. The
	// search runs at most Parallelism × WorkersPerRun workers at once.
	// Verdicts (and therefore the final spec) are identical at any
	// value: a refuted candidate's violation is the one-worker run's
	// (core.Checker.WorkersPerRun). Only the wall-clock shape of the
	// search changes.
	WorkersPerRun int
	// Deprecated: has no effect; candidates are tried one at a time. Kept only because benchmark/layers.go sets it; ROADMAP item 10 deletes both.
	Speculate bool
	// Cache, when non-nil, memoizes verdicts by (model, spec
	// fingerprint, program fingerprint) so repeated assignments —
	// multi-pass sweeps, caches shared across runs, a store on disk
	// across processes — are never re-verified: a memory session
	// (store.NewMemory) or a store.OpenShared one; nil memoizes nothing.
	// Only decisive verdicts are kept; the optimizer never closes it.
	Cache *store.Session
	// budget bounds each AMC run (zero: the checker's default); tests set
	// it to stop runs, whose Undecided rejects a candidate unverified.
	budget core.Budget
}

// LockSuite is the client suite a lock's candidate specs must verify:
// the threads-thread generic mutex client at one iteration, and for the
// Linux qspinlock also the extracted queue-path litmus (the MCS hand-off
// between two queued waiters, the path whose missing barrier was the
// Linux 4.16 bug; §3.3 and the Fig. 1 methodology) and the three-thread
// client, which runs the queue end to end. At threads=3 qspin's first
// and last programs are equal, and the engine runs them once.
func LockSuite(alg *locks.Algorithm, threads int) func(*vprog.BarrierSpec) []*vprog.Program {
	return func(spec *vprog.BarrierSpec) []*vprog.Program {
		ps := []*vprog.Program{harness.MutexClient(alg, spec, threads, 1)}
		if alg.Name == "qspin" {
			ps = append(ps, harness.QspinQueuePathLitmus(spec), harness.MutexClient(alg, spec, 3, 1))
		}
		return ps
	}
}

// rank orders modes for descent; equal-rank modes (Acq/Rel) are both
// tried.
func rank(m vprog.Mode) int {
	switch m {
	case vprog.ModeNone:
		return 0
	case vprog.Rlx:
		return 1
	case vprog.Acq, vprog.Rel:
		return 2
	case vprog.AcqRel:
		return 3
	default:
		return 4
	}
}

// candidates returns the modes to try for a point, weakest first,
// strictly weaker than the current mode.
func candidates(spec *vprog.BarrierSpec, point string) []vprog.Mode {
	cur := spec.M(point)
	var order []vprog.Mode
	if spec.IsFence(point) {
		order = []vprog.Mode{vprog.ModeNone, vprog.Rlx, vprog.Acq, vprog.Rel, vprog.AcqRel}
	} else {
		order = []vprog.Mode{vprog.Rlx, vprog.Acq, vprog.Rel, vprog.AcqRel}
	}
	var out []vprog.Mode
	for _, m := range order {
		if rank(m) < rank(cur) {
			out = append(out, m)
		}
	}
	return out
}

// NewCache returns an empty memory session to memoize verdicts in. Kept
// only because benchmark/layers.go calls it; ROADMAP item 10 deletes it.
func NewCache() *store.Session { return store.NewMemory() }

// engine carries the mutable state of one optimization run.
type engine struct {
	o     *Optimizer
	pool  *problem.Pool // Parallelism slots; one is strictly sequential
	knobs problem.Knobs
	res   *Result

	// popped is the cost estimate verify orders runs by: the states the
	// last finished run of each suite slot popped (unknown: 0).
	popped []int

	// fpBySpec caches the per-program structural fingerprints of a
	// candidate's suite, keyed by the spec fingerprint: Programs(spec) is
	// deterministic, so multi-pass sweeps over an already-judged spec
	// skip re-interpreting the programs and pay only a map lookup —
	// keeping cache hits nearly as cheap as the old (unsound) name keys.
	fpBySpec map[graph.Hash128][]graph.Hash128
}

// fingerprints returns the structural fingerprints of progs, memoized
// per spec fingerprint.
func (e *engine) fingerprints(specFP graph.Hash128, progs []*vprog.Program) []graph.Hash128 {
	if fps, ok := e.fpBySpec[specFP]; ok && len(fps) == len(progs) {
		return fps
	}
	fps := make([]graph.Hash128, len(progs))
	for i, p := range progs {
		fps[i] = p.Fingerprint128()
	}
	e.fpBySpec[specFP] = fps
	return fps
}

// verify runs AMC on the client programs of spec; it returns OK only if
// all verify, otherwise the verdict of the outcome that decides the
// suite (problem.Decider: a violation before an Error, an Error before
// Undecided) — or Canceled and ctx's error when ctx was canceled
// first; an Error comes with its run's error. The suite is
// one problem.Resolve call with fail-fast: decisive per-program verdicts are memoized in the Cache,
// cached failures decide without any AMC run, and programs with equal
// fingerprints are one problem and share one run. The problems are
// listed cheapest first — by the states the slot's last finished run
// popped, ties in suite order — so that a small litmus refutes a
// candidate before a large client is started for it.
func (e *engine) verify(ctx context.Context, spec *vprog.BarrierSpec) (core.Verdict, error) {
	progs := e.o.Programs(spec)
	specFP := spec.Fingerprint128()
	progFPs := e.fingerprints(specFP, progs)

	if n := len(progs) - len(e.popped); n > 0 {
		e.popped = append(e.popped, make([]int, n)...)
	}
	order := make([]int, len(progs)) // run order: problem i is suite slot order[i]
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return e.popped[order[a]] < e.popped[order[b]] })
	probs := make([]problem.Problem, len(progs))
	for i, slot := range order {
		probs[i] = problem.Problem{
			Model: e.o.Model, Prog: progs[slot], Name: progs[slot].Name,
			Key: store.Key{Model: e.o.Model.Name(), Spec: specFP, Prog: progFPs[slot]},
		}
	}
	outs := problem.Resolve(ctx, e.pool, probs, e.knobs, true)

	// Decider ranks a cancellation last, so it decides only when nothing
	// failed: the caller's ctx died, as a fail-fast cancel implies a
	// failure.
	verdict, failed := core.OK, problem.Decider(outs)
	if failed >= 0 {
		verdict = outs[failed].Res.Verdict
	}

	if e.o.Cache != nil {
		e.res.CacheLookups += len(outs)
	}
	for i, o := range outs {
		switch r := o.Res; {
		case o.FromStore:
			e.res.CacheHits++
		case o.Deduped:
			e.res.Deduped++
		case r.Err == problem.ErrNotStarted:
			if verdict != core.Canceled {
				e.res.Skipped++ // a sibling refuted the candidate first
			}
		case r.Verdict != core.Error && r.Verdict != core.Canceled:
			// The estimate of every slot this run decided, its deduped
			// equals included.
			for j := range probs {
				if probs[j].Key == probs[i].Key {
					e.popped[order[j]] = r.Stats.Popped
				}
			}
		}
		if o.Err != nil && e.res.StoreErr == nil {
			e.res.StoreErr = o.Err
		}
	}
	switch verdict {
	case core.Error:
		return core.Error, fmt.Errorf("optimizer: checking %s: %w", probs[failed].Name, outs[failed].Res.Err)
	case core.Canceled:
		return core.Canceled, ctx.Err()
	}
	return verdict, nil
}

// Run optimizes the spec. The initial spec must verify; Run then
// relaxes point by point and returns the final verified assignment.
func (o *Optimizer) Run(initial *vprog.BarrierSpec) (*Result, error) {
	return o.RunCtx(context.Background(), initial)
}

// RunCtx is Run with cooperative cancellation.
func (o *Optimizer) RunCtx(ctx context.Context, initial *vprog.BarrierSpec) (*Result, error) {
	start := time.Now()
	pool := problem.NewPool(o.Parallelism)
	workers := pool.Workers
	e := &engine{o: o, pool: pool, res: &Result{Initial: initial.Clone(), Workers: workers}, knobs: problem.Knobs{
		Store:         o.Cache,
		Budget:        o.budget,
		WorkersPerRun: o.WorkersPerRun,
	}, fpBySpec: make(map[graph.Hash128][]graph.Hash128)}
	spec := initial.Clone()

	v, err := e.verify(ctx, spec)
	e.res.Verifications++
	if err != nil {
		return nil, err
	}
	if v != core.OK {
		return nil, fmt.Errorf("optimizer: initial spec does not verify (%v); fix the algorithm first", v)
	}

	passes := o.Passes
	if passes < 1 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, point := range spec.Points() {
			orig := spec.M(point)
			for _, cand := range candidates(spec, point) {
				spec.Set(point, cand)
				t0 := time.Now()
				verdict, err := e.verify(ctx, spec)
				e.res.Verifications++
				if err != nil {
					return nil, err
				}
				accepted := verdict == core.OK
				e.res.Steps = append(e.res.Steps, Step{
					Point: point, Tried: cand, Accepted: accepted,
					Verdict: verdict, Duration: time.Since(t0),
				})
				if accepted {
					orig = cand
					changed = true
					break // weakest verified mode found for this point
				}
				spec.Set(point, orig) // roll back and try the next stronger mode
			}
		}
		if !changed {
			break // fixpoint
		}
	}
	e.res.Final = spec
	e.res.Duration = time.Since(start)
	if workers > 1 {
		e.res.Pool = e.pool.Stats()
	}
	return e.res, nil
}

// Report renders the optimization in the shape of Fig. 20: one line per
// point, with the accepted relaxation marked, followed by the mode tally,
// the candidates left undecided, and — for parallel/cached runs — the
// engine accounting: cache effectiveness and per-worker timing.
func (r *Result) Report() string {
	out := ""
	for _, p := range r.Initial.Points() {
		from, to := r.Initial.M(p), r.Final.M(p)
		if from == to {
			out += fmt.Sprintf("%-40s %s\n", p, from)
			continue
		}
		suffix := ""
		if to == vprog.ModeNone {
			suffix = " (fence removed)"
		}
		out += fmt.Sprintf("%-40s %s --> %s%s\n", p, from, to, suffix)
	}
	c := r.Final.Counts()
	out += fmt.Sprintf("modes: rlx=%d acq=%d rel=%d acqrel=%d sc=%d removed=%d | %d verifications in %v\n",
		c.Rlx, c.Acq, c.Rel, c.AcqRel, c.SC, c.Removed, r.Verifications, r.Duration)
	undecided := 0
	for _, s := range r.Steps {
		if s.Verdict == core.Undecided {
			undecided++
		}
	}
	if undecided > 0 {
		out += fmt.Sprintf("undecided: %d candidates stopped at their budget and were rejected unverified; the result may be stronger than locally maximal\n", undecided)
	}
	if r.CacheLookups+r.Deduped+r.Skipped > 0 {
		out += fmt.Sprintf("cache: %d hits / %d lookups, %d deduped, %d not started\n",
			r.CacheHits, r.CacheLookups, r.Deduped, r.Skipped)
	}
	if r.Pool.Workers > 0 {
		out += fmt.Sprintf("parallel: %d workers, %d runs canceled by short-circuit, busy %v total\n",
			r.Pool.Workers, r.Pool.Canceled, r.Pool.TotalBusy().Round(time.Millisecond))
		for i := range r.Pool.Busy {
			out += fmt.Sprintf("  worker %d: %3d jobs, %v busy\n",
				i, r.Pool.Jobs[i], r.Pool.Busy[i].Round(time.Millisecond))
		}
	}
	return out
}
