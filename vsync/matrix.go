package vsync

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/problem"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/workload"
)

// VerdictStore is a shared session on the persistent, content-
// addressed AMC verdict store (internal/store): an append-only
// checksummed log keyed by (model, spec fingerprint, program
// fingerprint). Shared by Run, the VerifyMatrix suite runner and an
// Optimizer (Optimizer.Cache).
//
// Sharing semantics: the log is multi-writer. Any number of sessions —
// in this process or others — may hold one path open simultaneously;
// appends are record-atomic under a short-held cross-process lock, so
// concurrent writers never lose or tear records. A session serves
// lookups from its in-memory index, which covers the log as of its
// last scan; VerifyMatrix and Run call VerdictStore.Refresh to pull in
// verdicts concurrent processes appended, so two simultaneous suite
// runs share one live store: each serves cells the other already
// decided and appends only what it computed first. Machines that share
// no file pool their verdicts through a remote tier (StoreOptions,
// cmd/vsyncstored). Compact rewrites a log in place (dropping
// duplicates and over-budget foreign-epoch history), safe against live
// sessions elsewhere.
type VerdictStore = store.Session

// StoreKey identifies one verification problem in a VerdictStore.
type StoreKey = store.Key

// StoreStats is a VerdictStore's cumulative accounting.
type StoreStats = store.Stats

// StoreOptions configures OpenStoreWith beyond the log path — chiefly
// the remote verdict-service tier (see cmd/vsyncstored): lookups then
// go memory → local log → remote, decisive appends are pushed in
// idempotent batches, and an unreachable service degrades the session
// to local-only with logged backoff, never failing a run.
type StoreOptions = store.Options

// OpenStore opens (creating if necessary) a shared session on the
// verdict log at path, loading its trusted prefix and truncating away
// any corrupt tail. Concurrent sessions on one path — including other
// processes' — are the supported norm; see VerdictStore.
func OpenStore(path string) (*VerdictStore, error) { return store.OpenShared(path, nil) }

// OpenStoreWith is OpenStore with options (remote tier, logging).
func OpenStoreWith(path string, opts *StoreOptions) (*VerdictStore, error) {
	return store.OpenShared(path, opts)
}

// StoreCodeEpoch returns the code-identity epoch this binary stamps on
// every store record (a hash of the verdict- and key-determining
// sources, listed in the root package's epoch.go): verdicts persisted
// by a build with different verification-relevant code are never served — retained for
// epoch flip-backs, compacted beyond a budget — so restoring a store
// across commits is always sound and stays bounded.
func StoreCodeEpoch() graph.Hash128 { return store.CodeEpoch() }

// MatrixConfig parameterizes an incremental suite run: which corpus to
// cover and which persistent store (if any) to consult before spending
// AMC work.
type MatrixConfig struct {
	// Models to verify under; nil selects all (SC, TSO, WMM).
	Models []Model
	// Locks to cover with the generic mutex client; nil selects every
	// registered non-buggy algorithm (ignored when NoLocks is set).
	Locks []*Algorithm
	// NoLocks drops the lock-client rows from the matrix.
	NoLocks bool
	// Structs selects the structure workloads to cover, each at the
	// thread ladder clamped to its supported range; nil selects every
	// registered non-buggy workload (internal/structs registers the
	// nonblocking structures at init). Ignored when NoStructs is set.
	Structs []Workload
	// NoStructs drops the structure rows from the matrix.
	NoStructs bool
	// MaxThreads tops the client thread-count ladder 2..MaxThreads
	// (MaxThreads <= 2 means just {2}).
	MaxThreads int
	// Iters is the critical sections per client thread (default 1).
	Iters int
	// NoLitmus drops the litmus corpus (weak + strong variants of every
	// built-in test) from the matrix.
	NoLitmus bool
	// Store, when non-nil, is consulted before every cell — a stored
	// verdict skips the AMC run entirely — and receives every decisive
	// verdict the run computes.
	Store *VerdictStore
	// Parallelism bounds concurrent AMC runs (0 = GOMAXPROCS).
	Parallelism int
	// WorkersPerRun shares each cell's run among this many workers of
	// its own (0 or 1 = one worker, the sequential explorer); the suite
	// runs at most Parallelism × WorkersPerRun workers at once.
	WorkersPerRun int
	// Budget bounds each cell's AMC run segment; a budget hit leaves
	// the cell Undecided (neither failure nor error) with its frontier
	// checkpointed when CheckpointDir is set. Zero still caps each
	// segment at 2,000,000 popped states (see Budget.MaxGraphs).
	Budget Budget
	// CheckpointDir, when non-empty, makes the suite crash-safe: each
	// cell checkpoints its interrupted frontier to a content-addressed
	// file there, and the next run over the same corpus resumes every
	// undecided cell exactly where it stopped instead of starting over.
	// Decided cells retire their file. The directory must exist.
	CheckpointDir string
	// CheckpointInterval additionally snapshots live frontiers at this
	// cadence (crash-safety against kill -9); requires CheckpointDir.
	CheckpointInterval time.Duration
}

// MatrixCell is the outcome of one (model × program) cell of the suite.
type MatrixCell struct {
	// Model and Program name the cell; Threads is the client ladder rung
	// (0 for litmus cells).
	Model   string
	Program string
	Threads int
	// Litmus marks conformance cells, whose SafetyViolation verdict
	// means "weak outcome observable" rather than a suite failure.
	Litmus bool
	// Verdict is the cell's (possibly store-served) AMC verdict.
	Verdict Verdict
	// FromStore reports that the verdict was served by the store and the
	// AMC run skipped.
	FromStore bool
	// Deduped reports that the verdict was computed by another cell of
	// this same run with an identical key (e.g. a litmus test whose weak
	// and strong variants generate the same program) — one AMC run
	// served both.
	Deduped bool
	// Duration is the AMC wall time (zero for store hits and deduped
	// cells).
	Duration time.Duration
	// Err is set for engine errors.
	Err error
}

// Failed reports whether the cell is a genuine suite failure: a lock
// cell that did not verify, or an engine error anywhere. Litmus cells
// report observability, so their decisive verdicts never fail. An
// Undecided cell is neither: its run hit a budget and checkpointed;
// the next suite pass resumes it.
func (c *MatrixCell) Failed() bool {
	if c.Verdict == core.Error || c.Verdict == Canceled {
		return true
	}
	return !c.Litmus && c.Verdict != OK && c.Verdict != core.Undecided
}

// MatrixResult aggregates one suite run.
type MatrixResult struct {
	Cells []MatrixCell
	// Hits counts cells served by the store (AMC runs skipped); Misses
	// counts AMC runs actually performed; Deduped counts cells served by
	// an identical-key cell's run in this same pass (so
	// Hits + Misses + Deduped == len(Cells)); Stored counts the records
	// the store actually appended.
	Hits, Misses, Deduped, Stored int
	// StoreErr is the first failed store append (disk full, I/O error),
	// or nil. An append failure does not taint the cell — its AMC
	// verdict is sound — but the run is not warming the store the way
	// the caller believes, so the next run will silently redo the work
	// unless someone warns. (A verdict *conflict* is different: it
	// means the keying broke, and the affected cells are reported as
	// engine errors instead.)
	StoreErr error
	// Failures counts lock cells with decisive non-OK verdicts; Errors
	// counts engine errors (including canceled runs); Undecided counts
	// cells whose run hit the Budget and checkpointed — unfinished, not
	// failed; a follow-up run resumes them.
	Failures, Errors, Undecided int
	// Duration is the suite wall time, including store I/O.
	Duration time.Duration
}

// HitRate returns the fraction of cells served by the store.
func (r *MatrixResult) HitRate() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	return float64(r.Hits) / float64(len(r.Cells))
}

// Ok reports whether every lock cell verified and no cell errored.
func (r *MatrixResult) Ok() bool { return r.Failures == 0 && r.Errors == 0 }

// Summary renders the one-paragraph accounting: corpus size, store
// efficacy, and failures.
func (r *MatrixResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite: %d cells in %v — %d store hits, %d AMC runs", len(r.Cells), r.Duration.Round(time.Millisecond), r.Hits, r.Misses)
	if r.Deduped > 0 {
		fmt.Fprintf(&b, " (+%d identical cells sharing them)", r.Deduped)
	}
	fmt.Fprintf(&b, ", %d verdicts stored (%.1f%% hit rate, %d AMC runs skipped)\n", r.Stored, 100*r.HitRate(), r.Hits)
	if r.Undecided > 0 {
		fmt.Fprintf(&b, "suite: %d cells undecided (budget hit, checkpointed — rerun to resume)\n", r.Undecided)
	}
	if r.Failures > 0 || r.Errors > 0 {
		fmt.Fprintf(&b, "suite: %d FAILED cells, %d engine errors\n", r.Failures, r.Errors)
	}
	return b.String()
}

// Report renders the full per-cell table followed by the summary. Lock
// and structure cells read ok/FAILED; litmus cells read
// ALLOWED/forbidden — the litmus conformance table, one cell per row
// (`vsyncsuite -no-locks -no-structs -models sc,tso,wmm,ra -v`).
func (r *MatrixResult) Report() string {
	t := report.NewTable("verification matrix (incremental)", "cell", "model", "verdict", "source", "time")
	for i := range r.Cells {
		c := &r.Cells[i]
		verdict := c.Verdict.String()
		switch {
		case c.Litmus:
			// Litmus cells answer observability, and engine failures
			// stay distinguishable.
			verdict = c.Verdict.LitmusLabel()
		case c.Verdict == core.Error:
			verdict = "ERROR"
		case c.Verdict == Canceled:
			verdict = "canceled"
		case c.Verdict == core.Undecided:
			verdict = "undecided"
		case c.Verdict == OK:
			verdict = "ok"
		default:
			verdict = "FAILED: " + verdict
		}
		source := "amc"
		dur := c.Duration.Round(time.Microsecond).String()
		switch {
		case c.FromStore:
			source, dur = "store", "-"
		case c.Deduped:
			source, dur = "dup", "-"
		}
		t.Add(c.Program, c.Model, verdict, source, dur)
	}
	return t.String() + "\n" + r.Summary()
}

// buildMatrix expands the config into the cell corpus — the table's
// cells and, parallel to them, the problems that decide them — in
// deterministic order: locks × thread ladder × models, then structures
// × ladder × models, then litmus × strength × models.
func buildMatrix(cfg *MatrixConfig) (cells []MatrixCell, probs []problem.Problem) {
	models := cfg.Models
	if models == nil {
		models = mm.All()
	}
	var threads []int
	for t := 2; t <= max(cfg.MaxThreads, 2); t++ {
		threads = append(threads, t)
	}
	iters := cfg.Iters
	if iters < 1 {
		iters = 1
	}
	// add appends p's row of cells, one per model: the program and spec
	// are fingerprinted once and the key re-addressed per model.
	add := func(p *Program, spec *BarrierSpec, cell MatrixCell) {
		var key StoreKey
		for i, m := range models {
			if i == 0 {
				key = ProblemKey(m, spec, p)
			}
			key.Model, cell.Model = m.Name(), m.Name()
			cells = append(cells, cell)
			probs = append(probs, problem.Problem{Model: m, Prog: p, Key: key, Name: cell.Program})
		}
	}
	// Locks are one workload family among others: each enters as the
	// generic mutex client over it.
	var ws []Workload
	if !cfg.NoLocks {
		algs := cfg.Locks
		if algs == nil {
			algs = locks.Verifiable()
		}
		for _, alg := range algs {
			ws = append(ws, workload.Mutex(alg, iters))
		}
	}
	if !cfg.NoStructs {
		if cfg.Structs == nil {
			ws = append(ws, workload.Verifiable()...)
		} else {
			ws = append(ws, cfg.Structs...)
		}
	}
	for _, w := range ws {
		spec := w.DefaultSpec()
		for _, t := range threads {
			if workload.CheckThreads(w, t) != nil {
				continue
			}
			p := workload.Program(w, spec, t)
			add(p, spec, MatrixCell{Program: p.Name, Threads: t})
		}
	}
	if !cfg.NoLitmus {
		for _, n := range harness.LitmusNames() {
			for _, strong := range []bool{false, true} {
				p := harness.Litmus(n, strong)
				// Label by registry name, not p.Name: several registry
				// entries share a program Name (SB and SB+fences are both
				// "litmus/SB") and the table must keep them apart.
				label := "litmus/" + n + "/weak"
				if strong {
					label = "litmus/" + n + "/strong"
				}
				// Litmus programs carry no BarrierSpec: the nil-spec key,
				// whose program fingerprint hashes every access mode.
				add(p, nil, MatrixCell{Program: label, Litmus: true})
			}
		}
	}
	return cells, probs
}

// VerifyMatrix runs the suite corpus incrementally: every cell the
// store has already decided is served by a hash lookup and its AMC run
// skipped; the remaining cells fan out across a worker pool (without
// fail-fast — the suite wants the whole matrix, not the first failure)
// and their decisive verdicts are appended to the store for the next
// run. With a warm store over an unchanged corpus the whole suite costs
// fingerprint hashing plus one log scan — no model checking at all.
func VerifyMatrix(cfg MatrixConfig) *MatrixResult {
	return VerifyMatrixCtx(context.Background(), cfg)
}

// VerifyMatrixCtx is VerifyMatrix with cooperative cancellation.
func VerifyMatrixCtx(ctx context.Context, cfg MatrixConfig) *MatrixResult {
	start := time.Now()
	cells, probs := buildMatrix(&cfg)
	res := &MatrixResult{Cells: cells}
	var appended0 int
	if cfg.Store != nil {
		appended0 = cfg.Store.Stats().Appended
	}
	outs := resolve(ctx, probs, RunOptions{
		Store:              cfg.Store,
		Parallelism:        cfg.Parallelism,
		WorkersPerRun:      cfg.WorkersPerRun,
		Budget:             cfg.Budget,
		CheckpointDir:      cfg.CheckpointDir,
		CheckpointInterval: cfg.CheckpointInterval,
	}, false)
	if cfg.Store != nil {
		// Count what the log actually gained, not what we offered it:
		// duplicate offers and indecisive verdicts append nothing.
		res.Stored = cfg.Store.Stats().Appended - appended0
	}

	for i, o := range outs {
		c := &cells[i]
		c.Verdict, c.Err, c.Duration = o.Res.Verdict, o.Res.Err, o.Res.Duration
		c.FromStore, c.Deduped = o.FromStore, o.Deduped
		switch {
		case errors.Is(o.Err, store.ErrConflict):
			// A conflict means the keying broke; surface it as a cell
			// error rather than silently trusting either side.
			c.Verdict, c.Err = core.Error, o.Err
		case o.Err != nil && res.StoreErr == nil:
			// A plain append failure, or a lost checkpoint, is NOT a cell
			// error — the verdict is sound, it just was not persisted.
			res.StoreErr = o.Err
		}
		switch {
		case c.FromStore:
			res.Hits++
		case c.Deduped:
			res.Deduped++
		default:
			res.Misses++
		}
		if c.Verdict == core.Error || c.Verdict == Canceled {
			res.Errors++
		} else if c.Verdict == core.Undecided {
			res.Undecided++
		} else if !c.Litmus && c.Verdict != OK {
			res.Failures++
		}
	}
	res.Duration = time.Since(start)
	return res
}
