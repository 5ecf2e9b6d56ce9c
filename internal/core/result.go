package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/graph"
)

// Verdict classifies the outcome of a verification run.
type Verdict uint8

// Verdicts.
const (
	// OK: every execution is safe and every await terminates.
	OK Verdict = iota
	// SafetyViolation: an assertion or the final-state check failed in
	// some consistent execution.
	SafetyViolation
	// ATViolation: an await can run forever (Definition 1 fails).
	ATViolation
	// Error: the checker could not complete (internal limit or a
	// program outside AMC's fragment).
	Error
	// Canceled: the run was cut short by context cancellation before a
	// verdict was reached (pool short-circuiting, caller timeout). It
	// carries no information about the program.
	Canceled
	// Undecided: the run stopped at a budget limit (or a checkpointing
	// cancellation) with work remaining. Like Canceled it carries no
	// verdict about the program, but unlike Canceled the work is not
	// lost: the Result carries a Checkpoint from which a later run
	// resumes and — once the frontier drains — reaches exactly the
	// verdict an uninterrupted run would have.
	Undecided
)

func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case SafetyViolation:
		return "safety violation"
	case ATViolation:
		return "await-termination violation"
	case Error:
		return "error"
	case Canceled:
		return "canceled"
	case Undecided:
		return "undecided"
	}
	return "unknown"
}

// Violation reports whether v refutes the program: a safety or an
// await-termination violation.
func (v Verdict) Violation() bool { return v == SafetyViolation || v == ATViolation }

// Decisive reports whether v is a sound answer about the program (OK or
// a violation), the only kind a store keeps or a checkpoint retires on.
func (v Verdict) Decisive() bool { return v == OK || v.Violation() }

// Outranks reports whether v takes precedence over w where outcomes
// compete (results racing to end a run, the programs of a suite): a
// violation > Error > Undecided > Canceled > OK; the two violations
// rank equal, and a value no run produces (a remote tier may serve
// one) ranks as an Error.
func (v Verdict) Outranks(w Verdict) bool { return v.rank() > w.rank() }

var verdictRank = [...]int{OK: 0, Canceled: 1, Undecided: 2, Error: 3, SafetyViolation: 4, ATViolation: 4}

func (v Verdict) rank() int {
	if int(v) < len(verdictRank) {
		return verdictRank[v]
	}
	return verdictRank[Error]
}

// LitmusLabel renders the verdict as a litmus-conformance answer.
// Litmus programs are phrased so the interesting weak outcome fails the
// final-state check, so running the checker answers reachability: OK
// means the outcome is forbidden, a safety violation means it is
// ALLOWED. The remaining verdicts answer neither way and get explicit
// labels too — the suite's conformance cells (vsync.MatrixResult.Report,
// vsyncsuite -v) map through here so no raw verdict string ever lands
// in a table cell unexplained.
func (v Verdict) LitmusLabel() string {
	switch v {
	case OK:
		return "forbidden"
	case SafetyViolation:
		return "ALLOWED"
	case ATViolation:
		// Not an observability answer: the test has an await loop the
		// model lets spin forever, so it sits outside AMC's terminating
		// fragment under this model.
		return "await-hang"
	case Canceled, Undecided:
		// A budget or an interrupt stopped the cell before either
		// answer; a rerun fills the cell in.
		return v.String()
	default:
		return "ERROR"
	}
}

// Stats counts the work performed by an exploration.
//
// Determinism across worker counts: for runs that explore to
// completion, Executions is schedule-independent — the visited set's
// atomic insert-if-absent admits each structural fingerprint once, and
// every complete execution is derived exactly once whichever worker
// reaches it first. A run at one worker is deterministic counter for
// counter, and so is a one-worker run split into segments. On more
// than one worker every other counter is a traversal counter (Popped,
// Pushed, Revisits, Duplicates, Wasteful, Collapsed, Inconsist,
// Filtered, Blocked and the canonicalization counters) and can vary by
// a few percent between schedules. The cause is that the dedup key
// leaves out stamps while revisit generation reads them: graphs with
// equal fingerprints but different addition histories carry different
// stamp orders, the revisit restriction keeps the events stamped before
// the revisited read (explorer.pushRevisit), so their subtrees differ,
// and which one the visited set admits first depends on pop timing.
// With the reduction on, which member of an orbit arrives first also
// decides the representative. A blocked graph is one such subtree's
// node: the qspin t=3 client without the reduction counts 294 at one
// worker and 294–296 at 2 and 4, while Executions is 600 in every run.
// (Folding the stamp order into the key makes every counter identical
// at 1, 2 and 4 workers, at ten times the executions: it is the cause,
// not a cure.) A violation reads the same at every worker count, every
// counter included: a parallel run that reaches one reports the
// one-worker rerun from the root (see Checker.WorkersPerRun).
// Collapsed counts one predicate at two places: collapsedRetry at a
// pop, and the same test of a value-changing write the moment it is
// built (explorer.pushWrite), which is then neither pushed nor popped.
type Stats struct {
	Popped     int // graphs popped from the exploration frontier
	Pushed     int // graphs pushed
	Executions int // complete consistent executions examined
	Revisits   int // write→read revisit graphs generated
	Duplicates int // graphs pruned by the visited set
	Wasteful   int // graphs pruned by the W(G) filter (Def. 2)
	Collapsed  int // graphs pruned by the retry-free-twin collapse, at their pop or at birth
	Inconsist  int // graphs pruned by the memory model at their pop
	Filtered   int // candidates the birth filter rejected: never pushed, most never built
	Blocked    int // stuck graphs whose ⊥ reads were all resolvable

	// Thread-symmetry reduction (zero when the program declares no
	// symmetric groups or Checker.NoSymmetry is set). CanonFast +
	// CanonRefined is the number of canonicalized pops; Canonicalized
	// counts the ones whose popped graph was NOT already the canonical
	// representative (its key was remapped onto an orbit sibling's).
	Canonicalized int // pops admitted under a non-identity relabeling
	CanonFast     int // canonicalizations resolved by the signature sort alone
	CanonRefined  int // canonicalizations that brute-forced signature tie classes
	CanonPruned   int // candidate permutations skipped by the signature fast path
}

// counters lists every field of s, in the order a checkpoint header
// carries them. Add and the checkpoint codec are loops over this list,
// so a counter is added here and nowhere else — at the end, with a
// checkpoint version bump.
func (s *Stats) counters() [14]*int {
	return [...]*int{&s.Popped, &s.Pushed, &s.Executions, &s.Revisits,
		&s.Duplicates, &s.Wasteful, &s.Collapsed, &s.Inconsist, &s.Filtered, &s.Blocked,
		&s.Canonicalized, &s.CanonFast, &s.CanonRefined, &s.CanonPruned}
}

// Add accumulates o into s (per-worker and suite-level aggregation).
func (s *Stats) Add(o Stats) {
	from := o.counters()
	for i, p := range s.counters() {
		*p += *from[i]
	}
}

// SchedStats describes how the work-graph scheduler executed a run:
// which workers participated, how the items were distributed, and how
// much cross-worker traffic the run generated. These counters are
// diagnostic and schedule-dependent, which is why they are kept out of
// Stats (whose equality across worker counts the differential tests
// assert).
type SchedStats struct {
	Workers      int   // worker seats configured (WorkersPerRun, min 1)
	Active       int   // workers that executed at least one item
	Executed     []int // items executed per worker seat
	Steals       int   // successful steal operations
	Stolen       int   // items moved between workers by steals
	FrontierPeak int   // peak queued states: the deques' high-water marks summed (an upper bound past one worker)
	Contention   int   // contended visited-shard lock acquisitions
	MemoRows     int   // distinct thread rows replayed, summed over the workers' replay memos
	MemoReplays  int   // replays asked of the memos; all but MemoRows were served from them
	// ParallelPopped is what a parallel run popped before the violation
	// that ended it; the rest of the Result but Duration, these counters
	// included, is the one-worker rerun's (see Checker.WorkersPerRun).
	// Zero otherwise.
	ParallelPopped int
}

// Accumulate sums the portable counters of o into s for suite-level
// aggregation (the per-seat breakdown does not compose across runs and
// is dropped).
func (s *SchedStats) Accumulate(o SchedStats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	if o.Active > s.Active {
		s.Active = o.Active
	}
	s.Executed = nil
	s.Steals += o.Steals
	s.Stolen += o.Stolen
	s.FrontierPeak = max(s.FrontierPeak, o.FrontierPeak)
	s.Contention += o.Contention
	s.MemoRows += o.MemoRows
	s.MemoReplays += o.MemoReplays
	s.ParallelPopped += o.ParallelPopped
}

// Result is the outcome of Checker.Run.
type Result struct {
	Verdict Verdict
	Message string
	Witness *graph.Graph // counterexample graph (violations only)
	Stats   Stats
	Sched   SchedStats // work-graph scheduler counters
	// Acyclic holds the acyclicity-engine counters of this run: how the
	// consistency predicates were decided (cached-order fast path, full
	// Kahn passes, shortcut verdicts from the order state alone) and how
	// the per-state topological order evolved across Extend. The
	// underlying counters are process-wide, so the delta is exact for a
	// lone run and approximate when other runs verify concurrently (a
	// pool); like SchedStats it is diagnostic, not part of the
	// determinism contract.
	Acyclic graph.AcyclicCounters
	// Mem sums what the workers' free lists were asked for and could
	// serve (see graph.FreeList); diagnostic like Acyclic, and like it
	// not part of Stats, which checkpoints carry.
	Mem graph.MemCounters
	// Sig sums how the workers' canonicalizations came by their thread
	// signatures (see graph.SigCounters); diagnostic like Mem.
	Sig      graph.SigCounters
	Duration time.Duration
	Err      error // set when Verdict == Error or Canceled (the context's error; problem.ErrNotStarted when no run started)
	// Checkpoint carries the drained frontier of an Undecided run: the
	// unexplored states, the visited-set summary, and the cumulative
	// counters a resumed run needs to continue deterministically. Nil
	// for every other verdict.
	Checkpoint *Checkpoint
}

// Ok reports whether the program verified.
func (r *Result) Ok() bool { return r.Verdict == OK }

// String summarizes the result in one line.
func (r *Result) String() string {
	switch r.Verdict {
	case OK:
		return fmt.Sprintf("ok: %d executions, %d graphs explored in %v",
			r.Stats.Executions, r.Stats.Popped, r.Duration)
	case Error:
		return fmt.Sprintf("error: %v", r.Err)
	case Undecided:
		n := 0
		if r.Checkpoint != nil {
			n = len(r.Checkpoint.frontier)
		}
		return fmt.Sprintf("undecided: %s (%d graphs explored, %d frontier states checkpointed)",
			r.Message, r.Stats.Popped, n)
	default:
		return fmt.Sprintf("%s: %s", r.Verdict, r.Message)
	}
}

// Report renders the result with its exploration statistics and the
// work-graph scheduler counters — the multi-line companion of String.
func (r *Result) Report() string {
	var b strings.Builder
	b.WriteString(r.String())
	if r.Witness != nil {
		fmt.Fprintf(&b, " (%d graphs explored in %v)", r.Stats.Popped, r.Duration)
	}
	b.WriteByte('\n')
	s := r.Stats
	fmt.Fprintf(&b, "exploration: %d popped, %d pushed, %d executions, %d revisits, %d duplicates, %d wasteful, %d collapsed, %d inconsistent, %d filtered at birth, %d blocked\n",
		s.Popped, s.Pushed, s.Executions, s.Revisits, s.Duplicates, s.Wasteful, s.Collapsed, s.Inconsist, s.Filtered, s.Blocked)
	if s.CanonFast+s.CanonRefined > 0 {
		fmt.Fprintf(&b, "symmetry: %d states canonicalized (%d fast-path, %d refined), %d permutations pruned; signatures: %d inherited, %d extended, %d from scratch\n",
			s.Canonicalized, s.CanonFast, s.CanonRefined, s.CanonPruned, r.Sig.Inherited, r.Sig.Extended, r.Sig.Scratch)
	}
	sc := r.Sched
	if sc.Workers > 0 {
		fmt.Fprintf(&b, "scheduler: %d/%d workers active, %d steals moving %d items, frontier peaked at %d states, %d contended shard locks",
			sc.Active, sc.Workers, sc.Steals, sc.Stolen, sc.FrontierPeak, sc.Contention)
		if sc.ParallelPopped > 0 {
			fmt.Fprintf(&b, "; a parallel phase popped %d states to a violation, reported by this one-worker rerun", sc.ParallelPopped)
		}
		b.WriteByte('\n')
		if sc.Workers > 1 {
			for i, n := range sc.Executed {
				fmt.Fprintf(&b, "  worker %d: %d items\n", i, n)
			}
		}
	}
	if a := r.Acyclic; a.Checks+a.TopoShortcuts > 0 {
		fmt.Fprintf(&b, "acyclicity: %d checks (%d order-seeded, %d kahn passes, %d cyclic), %d order-state shortcuts; order: %d extended, %d derived, %d cyclic states; coherence: %d by delta, %d full scans\n",
			a.Checks, a.SeedHits, a.KahnPasses, a.CyclesFound, a.TopoShortcuts,
			a.OrderExtends, a.OrderDerives, a.OrderCyclic, a.CohDelta, a.CohScans)
	}
	if m := r.Mem; m.SlabRequests+m.HeaderRequests > 0 {
		served := 0.0
		if sc.MemoReplays > 0 {
			served = 100 * float64(sc.MemoReplays-sc.MemoRows) / float64(sc.MemoReplays)
		}
		fmt.Fprintf(&b, "memory: %d relation slabs requested (%d recycled, %d retired by a thief), %d graph headers requested (%d recycled, %d retired by a thief), replay memo: %d rows for %d replays (%.0f%% served), free lists peaked at %d KB per worker\n",
			m.SlabRequests, m.SlabHits, m.SlabThief, m.HeaderRequests, m.HeaderHits, m.HeaderThief,
			sc.MemoRows, sc.MemoReplays, served, (m.HighWaterBytes+1023)/1024)
	}
	return b.String()
}
