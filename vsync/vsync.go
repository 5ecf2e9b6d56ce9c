// Package vsync is the public API of this reproduction of "VSync:
// Push-Button Verification and Optimization for Synchronization
// Primitives on Weak Memory Models" (Oberhauser et al., ASPLOS 2021).
//
// It exposes the three things VSync does:
//
//   - Verify: run Await Model Checking (AMC) on a concurrent program or
//     a lock's generic client — safety, mutual exclusion and await
//     termination on a weak memory model, in finite time, with
//     counterexample execution graphs on failure. Run is the one entry
//     point (single runs, parallel suites, verdict-store integration
//     via RunOptions); Run, VerifyMatrix and Optimize take every
//     problem through one lifecycle (internal/problem) — key
//     (ProblemKey) → store → checkpoint → run → persist — so what a
//     store hit, an equal-key duplicate or a resumable checkpoint means
//     is defined once.
//     Programs come from the structure-agnostic workload layer
//     (internal/workload): locks are one Workload family, the
//     nonblocking structures of internal/structs (Treiber stack,
//     Michael–Scott queue, seqlock) another — Workloads lists the
//     registry, WorkloadProgram builds a checkable program at any
//     supported thread count, and VerifyMatrix covers the structure
//     rows next to the lock × thread ladder.
//     Runs are crash-safe: RunOptions.Budget bounds a segment, and
//     CheckpointDir persists interrupted frontiers and is the one way
//     to resume them: the next run of the same problem picks its file
//     up and reproduces the uninterrupted run exactly (see
//     Checkpoint). Symmetric thread groups (Program.SymGroups; the
//     generated lock clients declare theirs automatically) are explored
//     one canonical representative per thread-relabeling orbit, cutting
//     the state space by up to t! with identical verdicts, witnesses
//     and determinism guarantees; RunOptions.NoSymmetry is the
//     differential escape hatch.
//
//   - Optimize: push-button barrier relaxation — start from the all-SC
//     assignment and relax every barrier point as far as verification
//     allows (§3.3, Table 1). Its candidates' verdicts are memoized in
//     a VerdictStore: a memory session by default, a log on disk to
//     carry them across processes.
//
//   - Benchmark: the §4.2 microbenchmark campaign of the sc-only vs
//     optimized variants on simulated ARMv8 and x86 platforms, plus the
//     table/figure emitters (Tables 2–5, Figs. 23–27).
//
// Quick start:
//
//	alg := vsync.LockByName("ttas")
//	res := vsync.VerifyLock(alg, alg.DefaultSpec(), 2, 1)
//	fmt.Println(res)                       // ok: N executions ...
//
//	opt, _ := vsync.OptimizeLock(alg, 2)   // relax from all-SC
//	fmt.Println(opt.Report())
package vsync

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/store"
	_ "repro/internal/structs" // registers the structure workloads (Workloads, WorkloadByName)
	"repro/internal/vprog"
	"repro/internal/wmsim"
	"repro/internal/workload"
)

// Re-exported building blocks. The internal packages carry the full
// documentation; these aliases make the library usable from a single
// import.
type (
	// Program is a concurrent program: shared variables plus thread
	// closures over the Mem interface.
	Program = vprog.Program
	// Mem is the shared-memory interface thread code programs against.
	Mem = vprog.Mem
	// Var is a shared memory cell.
	Var = vprog.Var
	// Mode is a barrier mode (Rlx … SC).
	Mode = vprog.Mode
	// BarrierSpec assigns modes to an algorithm's barrier points.
	BarrierSpec = vprog.BarrierSpec
	// Algorithm is a registered lock implementation.
	Algorithm = locks.Algorithm
	// Result is a verification outcome with statistics and witness.
	Result = core.Result
	// Verdict classifies a verification outcome.
	Verdict = core.Verdict
	// OptResult is a barrier-optimization outcome.
	OptResult = optimize.Result
	// PoolStats is the per-slot accounting of the run pool an Optimize
	// schedules its AMC work on (OptResult.Pool).
	PoolStats = problem.PoolStats
	// SchedStats is the work-graph scheduler accounting of one run
	// (active workers, steals, frontier peak, shard contention).
	SchedStats = core.SchedStats
	// Model is a weak memory model (consistency predicate).
	Model = mm.Model
	// Machine is a simulated benchmark platform.
	Machine = wmsim.Machine
	// BenchConfig parameterizes the evaluation campaign.
	BenchConfig = bench.Config
	// BenchRecord is one raw measurement (Table 2 row).
	BenchRecord = bench.Record
	// Workload is one named family of verification programs over a
	// thread count — the structure-agnostic seam locks and nonblocking
	// structures are both built on (internal/workload).
	Workload = workload.Workload
)

// Barrier modes.
const (
	ModeNone = vprog.ModeNone
	Rlx      = vprog.Rlx
	Acq      = vprog.Acq
	Rel      = vprog.Rel
	AcqRel   = vprog.AcqRel
	SC       = vprog.SC
)

// Verdicts.
const (
	OK              = core.OK
	SafetyViolation = core.SafetyViolation
	ATViolation     = core.ATViolation
	Canceled        = core.Canceled
	// Undecided marks a run stopped by a Budget limit (or a
	// checkpointing cancellation) with the search incomplete; the
	// result carries a Checkpoint to resume from.
	Undecided = core.Undecided
)

// Memory models.
var (
	// ModelSC is sequential consistency.
	ModelSC = mm.SC
	// ModelTSO is x86-style total store order.
	ModelTSO = mm.TSO
	// ModelWMM is the RC11-flavoured weak model standing in for IMM.
	ModelWMM = mm.WMM
)

// VerifyLock model-checks a lock algorithm under WMM with the paper's
// generic mutex client: nthreads threads each perform iters lock-
// protected increments; AMC checks mutual exclusion, hand-off ordering
// and await termination.
func VerifyLock(alg *Algorithm, spec *BarrierSpec, nthreads, iters int) *Result {
	p := harness.MutexClient(alg, spec, nthreads, iters)
	rr := Run(ModelWMM, []*Program{p}, RunOptions{Parallelism: 1})
	return rr.Results[0]
}

// NewOptCache returns an empty memory session to share across
// optimization runs as OptimizeOptions.Cache.
func NewOptCache() *VerdictStore { return store.NewMemory() }

// Locks returns every registered algorithm (including the buggy study-
// case variants, marked Buggy).
func Locks() []*Algorithm { return locks.All() }

// LockByName returns a registered algorithm or nil.
func LockByName(name string) *Algorithm { return locks.ByName(name) }

// MutexClient builds the paper's generic client program for a lock.
func MutexClient(alg *Algorithm, spec *BarrierSpec, nthreads, iters int) *Program {
	return harness.MutexClient(alg, spec, nthreads, iters)
}

// Workloads returns every registered workload (including the Buggy
// seeded-bug study variants) in stable name order. internal/structs
// registers the nonblocking structures at init.
func Workloads() []Workload { return workload.All() }

// WorkloadByName returns a registered workload or nil.
func WorkloadByName(name string) Workload { return workload.ByName(name) }

// WorkloadProgram builds w's verification program at nthreads under
// spec (nil selects the workload's default barrier assignment). It
// panics when nthreads is outside the workload's supported range.
func WorkloadProgram(w Workload, spec *BarrierSpec, nthreads int) *Program {
	return workload.Program(w, spec, nthreads)
}

// OptimizeOptions tunes the optimizer's parallel verification engine.
// The final spec is identical whatever the settings; they only change
// how fast it is reached. The zero value is the push-button default
// OptimizeLock uses: GOMAXPROCS slots, one worker per run, a private
// memory session, one pass.
type OptimizeOptions struct {
	// Parallelism bounds the concurrent AMC runs a candidate's client
	// programs fan out across: 0 = GOMAXPROCS, 1 = strictly sequential.
	Parallelism int
	// WorkersPerRun lets each AMC run additionally share its
	// exploration frontier among this many workers of its own via
	// intra-run work stealing (0 or 1 = off); the search runs at most
	// Parallelism × WorkersPerRun workers at once. Note the trade-off: a
	// parallel run explores to completion on violations (for
	// deterministic merging), so candidates expected to FAIL lose the
	// sequential early exit — worth it for big verifying runs, not for
	// descents dominated by failing candidates.
	WorkersPerRun int
	// Cache memoizes verdicts across candidates and passes, and —
	// shared — across calls: a memory session (NewOptCache) or a store
	// on disk (OpenStore). Nil uses a private memory session;
	// memoization never changes a verdict.
	Cache *VerdictStore
	// Passes caps full point sweeps (0 or 1 = single pass).
	Passes int
}

// Optimize runs the barrier-relaxation search with explicit engine
// options; programs builds the client suite a candidate spec must
// verify, initial is the (verified) starting assignment.
func Optimize(model Model, programs func(*BarrierSpec) []*Program, initial *BarrierSpec, opts OptimizeOptions) (*OptResult, error) {
	cache := opts.Cache
	if cache == nil {
		cache = store.NewMemory()
	}
	opt := &optimize.Optimizer{
		Model:         model,
		Programs:      programs,
		Passes:        opts.Passes,
		Parallelism:   opts.Parallelism,
		WorkersPerRun: opts.WorkersPerRun,
		Cache:         cache,
	}
	return opt.Run(initial)
}

// OptimizeLock relaxes a lock's barriers from the all-SC baseline until
// maximally relaxed while the nthreads-client still verifies under WMM,
// with the zero OptimizeOptions.
func OptimizeLock(alg *Algorithm, nthreads int) (*OptResult, error) {
	return Optimize(ModelWMM, func(spec *BarrierSpec) []*Program {
		return []*Program{harness.MutexClient(alg, spec, nthreads, 1)}
	}, alg.DefaultSpec().AllSC(), OptimizeOptions{})
}

// Machines returns the simulated evaluation platforms (ARMv8, x86_64).
func Machines() []*Machine { return wmsim.Machines() }

// DefaultBench returns the full §4.2 campaign configuration,
// QuickBench a reduced one.
func DefaultBench() BenchConfig { return bench.Default() }

// QuickBench returns a fast campaign for smoke runs.
func QuickBench() BenchConfig { return bench.Quick() }

// RunBench executes a campaign and returns the raw records.
func RunBench(cfg BenchConfig) []BenchRecord { return bench.RunCampaign(cfg) }

// BenchReport runs a campaign and renders Tables 2–5 and Figs. 23–26.
func BenchReport(cfg BenchConfig) string { return bench.CampaignReport(cfg) }
