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
// The independent AMC runs of the search are embarrassingly parallel,
// and the engine exploits that on three axes without changing the
// result: the client programs of one candidate spec fan out across a
// core.Pool (a failing program cancels its siblings); in
// speculative-ladder mode the candidate modes of one point race each
// other, the weakest verified one winning — exactly the mode the
// sequential descent would have accepted; and with WorkersPerRun > 1
// the runs and the ladder share one scheduler — idle pool slots are
// borrowed for intra-run work stealing inside whichever exploration is
// still going, instead of nesting a second pool under the first. A
// Cache memoizes verdicts so multi-pass descents never re-verify an
// assignment already judged. Within one candidate there is one run per
// distinct problem — client programs with equal fingerprints share it —
// and the runs start cheapest first, so the program most likely to
// refute a candidate is also the first to try.
package optimize

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/store"
	"repro/internal/vprog"
)

// Step records one attempted relaxation. Speculative-ladder runs also
// record the overshoot: candidates stronger than the accepted one that
// the sequential descent would never have tried; those appear with
// Verdict Canceled when the short-circuit stopped them early. Accepted
// does not depend on the order the suite's programs ran in; the Verdict
// of a candidate that several programs refute names the failure of
// whichever ran first, the cheapest as a rule, and may be either.
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
	// the initial check and any speculative attempts the ladder launched
	// beyond the greedy minimum.
	Verifications int
	// CacheHits and CacheLookups count memo-cache probes made during
	// this run (zero when the optimizer has no Cache). CacheUndecided
	// counts probes of problems judged before but without a storable
	// verdict (engine errors, budget stops) — neither hits nor honest
	// misses; CacheLookups includes them.
	CacheHits, CacheLookups, CacheUndecided int
	// Deduped counts programs served by the run of an equal-fingerprint
	// sibling in the same suite; Skipped counts runs never started
	// because a cheaper one had already refuted the candidate.
	Deduped, Skipped int
	// Workers is the AMC concurrency the run used (1 = sequential).
	Workers int
	// Pool is the worker-pool accounting: per-worker busy time and job
	// counts, and how many runs the fail-fast short-circuit canceled.
	// Zero-valued for sequential runs.
	Pool core.PoolStats
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
	// be accepted (typically MutexClient instances of varying shapes).
	// It must be safe for concurrent invocation: the parallel engine
	// builds several candidates' program suites at once.
	Programs func(spec *vprog.BarrierSpec) []*vprog.Program
	// Passes caps the number of full point sweeps (0 or 1 = single
	// pass). Because the greedy descent is order-dependent, a point
	// rejected early can become relaxable after later points settle;
	// additional passes run until a fixpoint or the cap.
	Passes int
	// Parallelism bounds the number of concurrent AMC runs: 0 selects
	// GOMAXPROCS, 1 forces the strictly sequential engine. The final
	// spec is identical either way.
	Parallelism int
	// WorkersPerRun, when > 1, lets every AMC run of the search share
	// its exploration frontier through the pool's unified scheduler:
	// idle pool slots — e.g. at the tail of a speculative ladder when
	// only the slowest candidate is still verifying — are borrowed for
	// intra-run work stealing instead of sitting dead. Verdicts (and
	// therefore the final spec) are identical at any value; only the
	// wall-clock shape of the search changes.
	WorkersPerRun int
	// Speculate races each point's candidate ladder concurrently
	// (weakest→strongest launched together, weakest verified accepted)
	// instead of trying candidates one at a time. Requires
	// Parallelism != 1 to have any effect. Speculation can launch
	// verifications the sequential descent would have skipped — wall
	// clock improves, total CPU may not.
	Speculate bool
	// Cache, when non-nil, memoizes verdicts by (model, spec
	// fingerprint, program fingerprint) so repeated assignments —
	// multi-pass sweeps, shared caches across runs, store-backed caches
	// across processes — are never re-verified.
	Cache *Cache
	// budget bounds each AMC run (zero: the checker's default); tests set
	// it to stop runs, whose Undecided rejects a candidate unverified.
	budget core.Budget
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

// engine carries the mutable state of one optimization run.
type engine struct {
	o     *Optimizer
	pool  *core.Pool // one slot: strictly sequential
	cache *Cache     // nil: memoization disabled
	res   *Result

	// mu guards the res counters and popped: ladder candidates verify
	// concurrently.
	mu sync.Mutex
	// popped is the cost estimate verify orders runs by: the states the
	// last finished run of each suite slot popped (unknown: 0).
	popped []int

	// fpBySpec caches the per-program structural fingerprints of a
	// candidate's suite, keyed by the spec fingerprint: Programs(spec) is
	// deterministic, so multi-pass sweeps and ladder re-probes of an
	// already-judged spec skip re-interpreting the programs and pay only
	// a map lookup — keeping cache hits nearly as cheap as the old
	// (unsound) name keys.
	fpMu     sync.Mutex
	fpBySpec map[graph.Hash128][]graph.Hash128
}

// fingerprints returns the structural fingerprints of progs, memoized
// per spec fingerprint. The computation runs outside the lock so
// concurrent ladder candidates don't serialize; a duplicated racing
// computation is deterministic and harmless.
func (e *engine) fingerprints(specFP graph.Hash128, progs []*vprog.Program) []graph.Hash128 {
	e.fpMu.Lock()
	fps, ok := e.fpBySpec[specFP]
	e.fpMu.Unlock()
	if ok && len(fps) == len(progs) {
		return fps
	}
	fps = make([]graph.Hash128, len(progs))
	for i, p := range progs {
		fps[i] = p.Fingerprint128()
	}
	e.fpMu.Lock()
	if e.fpBySpec == nil {
		e.fpBySpec = make(map[graph.Hash128][]graph.Hash128)
	}
	e.fpBySpec[specFP] = fps
	e.fpMu.Unlock()
	return fps
}

func (e *engine) countProbe(outcome probeOutcome) {
	e.mu.Lock()
	e.res.CacheLookups++
	switch outcome {
	case probeHit:
		e.res.CacheHits++
	case probeUndecided:
		e.res.CacheUndecided++
	}
	e.mu.Unlock()
}

// checker builds a fresh Checker for one job; checkers are mutable and
// must not be shared across concurrent runs.
func (e *engine) checker() *core.Checker {
	c := core.New(e.o.Model)
	c.Budget = e.o.budget
	c.WorkersPerRun = e.o.WorkersPerRun
	return c
}

// verify runs AMC on the client programs of spec; it returns OK only if
// all verify, otherwise a decisive failure verdict — or Canceled when
// ctx was canceled first (the speculative ladder pruning a candidate
// that can no longer win). Decisive per-program verdicts are memoized;
// cached failures decide without any AMC run. Programs with equal
// fingerprints are one problem and share one run, and runs are
// submitted cheapest first — by the states the slot's last finished run
// popped, ties in suite order — so that under fail-fast a small litmus
// refutes a candidate before a large client is started for it.
func (e *engine) verify(ctx context.Context, spec *vprog.BarrierSpec) (core.Verdict, error) {
	progs := e.o.Programs(spec)
	specFP := spec.Fingerprint128()
	key := store.Key{Model: e.o.Model.Name(), Spec: specFP}
	progFPs := e.fingerprints(specFP, progs)
	type run struct {
		slot int // index in the suite
		key  store.Key
	}
	var runs []run
	deduped := 0
	for pi := range progs {
		key.Prog = progFPs[pi]
		if e.cache != nil {
			v, outcome := e.cache.lookup(key)
			e.countProbe(outcome)
			if outcome == probeHit {
				if v != core.OK {
					return v, nil
				}
				continue // already known to verify
			}
		}
		if slices.ContainsFunc(runs, func(r run) bool { return r.key == key }) {
			deduped++
			continue
		}
		runs = append(runs, run{slot: pi, key: key})
	}
	if len(runs) == 0 {
		return core.OK, nil
	}

	e.mu.Lock()
	e.res.Deduped += deduped
	if n := len(progs) - len(e.popped); n > 0 {
		e.popped = append(e.popped, make([]int, n)...)
	}
	sort.SliceStable(runs, func(a, b int) bool { return e.popped[runs[a].slot] < e.popped[runs[b].slot] })
	e.mu.Unlock()
	jobs := make([]core.Job, len(runs))
	for i, r := range runs {
		jobs[i] = core.Job{Checker: e.checker(), Program: progs[r.slot]}
	}
	verdict, failed, results := e.pool.VerifyAll(ctx, jobs)

	e.mu.Lock()
	for i, r := range results {
		switch r.Verdict {
		case core.Error:
		case core.Canceled:
			if r.Err == core.ErrNotStarted && verdict != core.Canceled {
				e.res.Skipped++ // a sibling refuted the candidate first
			}
		default:
			e.popped[runs[i].slot] = r.Stats.Popped
		}
	}
	e.mu.Unlock()
	if e.cache != nil {
		for i, r := range results {
			e.cache.store(runs[i].key, progs[runs[i].slot].Name, r.Verdict) // drops indecisive verdicts
		}
	}
	if verdict == core.Error {
		return core.Error, fmt.Errorf("optimizer: checking %s: %w", progs[runs[failed].slot].Name, results[failed].Err)
	}
	return verdict, nil
}

// ladder speculatively races every candidate mode of one point and
// returns the index of the accepted candidate (-1: none verified).
// The accepted index is the lowest one whose suite verified — the same
// mode the sequential weakest-first sweep accepts — and once some
// candidate verifies, every stronger candidate still in flight is
// canceled, since it can no longer be chosen.
func (e *engine) ladder(ctx context.Context, spec *vprog.BarrierSpec, point string, cands []vprog.Mode) (int, error) {
	parent, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	cctx := make([]context.Context, len(cands))
	cancel := make([]context.CancelFunc, len(cands))
	for i := range cands {
		cctx[i], cancel[i] = context.WithCancel(parent)
	}

	type outcome struct {
		verdict core.Verdict
		err     error
		dur     time.Duration
	}
	outcomes := make([]outcome, len(cands))
	best := len(cands)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, cand := range cands {
		wg.Add(1)
		go func(i int, cand vprog.Mode) {
			defer wg.Done()
			s := spec.Clone()
			s.Set(point, cand)
			t0 := time.Now()
			v, err := e.verify(cctx[i], s)
			outcomes[i] = outcome{verdict: v, err: err, dur: time.Since(t0)}
			if v == core.OK {
				mu.Lock()
				if i < best {
					best = i
					for j := i + 1; j < len(cands); j++ {
						cancel[j]()
					}
				}
				mu.Unlock()
			}
		}(i, cand)
	}
	wg.Wait()

	accepted := -1
	if best < len(cands) {
		accepted = best
	}
	// The sequential descent would have evaluated candidates 0..accepted
	// in order; an Error among those aborts the run exactly as it would
	// have there. Candidates beyond the accepted one are speculative
	// overshoot — recorded for the report, never fatal.
	for i, oc := range outcomes {
		if oc.err != nil && (accepted < 0 || i <= accepted) {
			return -1, oc.err
		}
		e.res.Steps = append(e.res.Steps, Step{
			Point: point, Tried: cands[i], Accepted: i == accepted,
			Verdict: oc.verdict, Duration: oc.dur,
		})
		e.res.Verifications++
	}
	return accepted, nil
}

// Run optimizes the spec. The initial spec must verify; Run then
// relaxes point by point and returns the final verified assignment.
func (o *Optimizer) Run(initial *vprog.BarrierSpec) (*Result, error) {
	return o.RunCtx(context.Background(), initial)
}

// RunCtx is Run with cooperative cancellation.
func (o *Optimizer) RunCtx(ctx context.Context, initial *vprog.BarrierSpec) (*Result, error) {
	start := time.Now()
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &engine{o: o, pool: core.NewPool(workers), cache: o.Cache, res: &Result{Initial: initial.Clone(), Workers: workers}}
	spec := initial.Clone()

	v, err := e.verify(ctx, spec)
	e.res.Verifications++
	if err != nil {
		return nil, err
	}
	if v == core.Canceled {
		return nil, ctx.Err()
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
			cands := candidates(spec, point)
			if len(cands) == 0 {
				continue
			}
			if workers > 1 && o.Speculate && len(cands) > 1 {
				accepted, err := e.ladder(ctx, spec, point, cands)
				if err != nil {
					return nil, err
				}
				if ctx.Err() != nil {
					// A dead caller context makes every ladder outcome
					// Canceled; without this check the descent would
					// "finish" with a truncated, under-relaxed spec.
					return nil, ctx.Err()
				}
				if accepted >= 0 {
					spec.Set(point, cands[accepted])
					changed = true
				}
				continue
			}
			orig := spec.M(point)
			for _, cand := range cands {
				spec.Set(point, cand)
				t0 := time.Now()
				verdict, err := e.verify(ctx, spec)
				e.res.Verifications++
				if err != nil {
					return nil, err
				}
				if verdict == core.Canceled {
					return nil, ctx.Err()
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
		out += fmt.Sprintf("cache: %d hits / %d lookups", r.CacheHits, r.CacheLookups)
		if r.CacheUndecided > 0 {
			out += fmt.Sprintf(" (%d undecided re-probes)", r.CacheUndecided)
		}
		out += fmt.Sprintf(", %d deduped, %d not started\n", r.Deduped, r.Skipped)
	}
	if r.Pool.Workers > 0 {
		out += fmt.Sprintf("parallel: %d workers, %d runs canceled by short-circuit, %d slots borrowed for intra-run stealing, busy %v total\n",
			r.Pool.Workers, r.Pool.Canceled, r.Pool.Borrows, r.Pool.TotalBusy().Round(time.Millisecond))
		for i := range r.Pool.Busy {
			out += fmt.Sprintf("  worker %d: %3d jobs, %v busy\n",
				i, r.Pool.Jobs[i], r.Pool.Busy[i].Round(time.Millisecond))
		}
	}
	return out
}
