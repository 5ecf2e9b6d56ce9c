package core

import (
	"context"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// Checker is an AMC instance. The zero value is not usable; use New.
type Checker struct {
	// Model is the memory model to verify against.
	Model mm.Model
	// MaxEvents bounds the size of a single execution graph.
	MaxEvents int
	// WorkersPerRun is the number of workers sharing this run's
	// exploration frontier. 1 (or less) selects the sequential DFS.
	// With more workers the frontier becomes a work-graph: each worker
	// executes its own deque LIFO and steals FIFO from the others, and
	// the visited set arbitrates expansions. At any worker count the
	// first violation reached ends the run. A parallel run that ends so
	// is run again from the root at one worker, under what is left of
	// the segment's budget, and reports that run's verdict, witness,
	// message and Stats (its own pops are SchedStats.ParallelPopped):
	// many workers find a bug fast, one deterministic search reports
	// it. So a violation reads the same at every worker count, and a
	// complete run agrees on the verdict and Executions (see Stats for
	// which other counters depend on the schedule).
	WorkersPerRun int
	// DisableDedup turns off the visited-graph set (ablation: the
	// closure-dropping revisit scheme re-derives some graphs along
	// multiple paths; the fingerprint set prunes them and guarantees
	// termination). A run without it may not terminate: treiber t=3 is
	// still Undecided at 2,000,000 popped states. Where it does finish,
	// the verdict is unchanged: the audited corpus pass of this package's
	// tests runs every two-thread cell without it at one worker and
	// checks so.
	DisableDedup bool
	// NoSymmetry disables thread-symmetry reduction even for programs
	// that declare symmetric thread groups (vprog.Program.SymGroups):
	// every state keeps its raw structural key instead of the canonical
	// (minimal-over-permutations) one, so symmetric siblings are explored
	// separately. The escape hatch exists as the differential oracle —
	// the audited corpus pass of this package's tests runs every
	// two-thread cell of the corpus, under each model and at 1, 2 and 4
	// workers, with and without it, and asserts the same verdict, no more
	// executions with the reduction, and identical counters where the
	// program has no symmetric groups — and as a diagnostic when a
	// symmetry declaration is suspected wrong. Symmetry is also off
	// whenever the dedup spine it keys is off (DisableDedup).
	NoSymmetry bool

	// Budget bounds this run segment (wall clock, popped graphs, heap
	// bytes). A budget hit drains the workers cleanly — every running
	// step completes and publishes its children — and the run returns
	// an Undecided result carrying a Checkpoint of the remaining
	// frontier instead of losing the work. A zero Budget still caps the
	// segment at 2,000,000 popped states (see Budget.MaxGraphs).
	Budget Budget
	// Resume seeds the run from a checkpoint instead of the program's
	// root graph: the frontier, visited-set keys and cumulative counters
	// are restored, and the run continues to the verdict an
	// uninterrupted run would reach — at one worker, to the same
	// counters and counterexample too. A checkpoint of a one-worker run
	// may be resumed at more workers. A checkpoint taken during the
	// one-worker rerun that reports a parallel run's violation (see
	// WorkersPerRun) resumes at one worker whatever WorkersPerRun says:
	// resumed in parallel, each segment would start the rerun over and
	// never finish it. The checkpoint's Model and Prog identity are
	// validated here; Epoch is the caller's to check (see Checkpoint).
	Resume *Checkpoint
	// CheckpointInterval, together with CheckpointSink, enables
	// periodic snapshots: at most every interval, one worker briefly
	// quiesces the others (they finish their current state and pause
	// between items), captures the frontier, and hands the Checkpoint
	// to the sink. Zero disables periodic snapshots; budget-hit and
	// cancellation checkpoints do not need it.
	CheckpointInterval time.Duration
	// CheckpointSink receives periodic snapshots. It runs outside the
	// quiesce window (encoding and file I/O do not stall the workers)
	// but on a worker goroutine; errors are the sink's to report.
	CheckpointSink func(*Checkpoint) error
	// CheckpointOnCancel turns a context cancellation into the same
	// drain-and-checkpoint path as a budget hit: the run returns
	// Undecided with a Checkpoint instead of a bare Canceled. This is
	// how SIGINT becomes "checkpoint, then exit".
	CheckpointOnCancel bool
}

// New returns a Checker for the given memory model with default limits.
func New(model mm.Model) *Checker {
	return &Checker{Model: model, MaxEvents: 4096}
}

// ExploreState is one unit of work in the exploration work-graph: a
// partial execution graph plus the revisit bookkeeping — at most one
// forced rf choice created by a write→read revisit, applied to the next
// event of the read's thread before normal branching resumes. Pending
// operations are not stored: AMC is stateless, so any worker
// reconstructs them by replaying the program against the graph. An
// ExploreState is therefore self-contained — whichever worker pops it
// (its producer, or a thief) executes it identically.
type ExploreState struct {
	g       *graph.Graph
	forcedR graph.EventID
	forcedW graph.EventID

	// snap, when non-nil, points at the first of the producing step's
	// replay results, one memo entry per thread (see snapOf), shared by
	// all the step's children: the graph extends the producer's by one
	// event of thread changed, and a replay reads only its thread's row,
	// so the pop replays just that thread. Entries are immutable, so the
	// results need no owner but the collector; a pointer, not a slice,
	// keeps the state the deques hold by value at seven words. Revisit
	// states and states out of a checkpoint never carry one.
	snap      **replayResult
	changed   int32
	hasForced bool
}

// snapOf returns the current step's replay results for a child about to
// be pushed: built at the first call, so a step whose candidates are all
// filtered at birth builds none, and shared by every later one.
func (w *explorer) snapOf() **replayResult {
	if w.cur == nil {
		w.cur = carve(&w.snaps, w.rres)
	}
	return &w.cur[0]
}

// key returns the 128-bit structural dedup key: the graph's hash with
// any forced (read, write) revisit pair folded in by graph.ForcedKey —
// no strings, no fmt, two words per state.
func (it ExploreState) key() graph.Hash128 {
	k := it.g.Fingerprint128()
	if it.hasForced {
		k = graph.ForcedKey(k, it.forcedR, it.forcedW)
	}
	return k
}

// Run verifies the program: it explores the execution graphs of p under
// c.Model, checking every assertion, the final-state condition, and
// await termination. It returns the first violation found (with a
// counterexample graph) or OK.
func (c *Checker) Run(p *vprog.Program) *Result {
	return c.RunCtx(context.Background(), p)
}

// cancelCheckEvery is how many popped states pass between context
// checks in RunCtx: cheap enough to be invisible, frequent enough that
// a pool short-circuit stops a multi-second run within milliseconds.
const cancelCheckEvery = 256

// RunCtx is Run with cooperative cancellation: when ctx is canceled the
// exploration stops at the next check point and returns a Canceled
// result (no verdict about the program is implied).
func (c *Checker) RunCtx(ctx context.Context, p *vprog.Program) *Result {
	start := time.Now()
	acy0 := graph.AcyclicCountersNow()
	workers := max(c.WorkersPerRun, 1)
	rerun := c.Resume != nil && c.Resume.rerun
	if rerun {
		workers = 1
	}
	x := c.newExploration(ctx, p, workers, start, c.Budget.graphCap())
	x.rerun = rerun
	res := x.run(c.Resume)
	if workers > 1 && res.Verdict.Violation() {
		// Which violation a parallel run reaches first depends on the
		// schedule; the one-worker run from the root reports one that
		// does not.
		pops := x.popped.Load()
		y := c.newExploration(ctx, p, 1, start, max(x.maxPops-pops, 0))
		y.rerun = true
		acy0 = graph.AcyclicCountersNow()
		res = y.run(nil)
		res.Sched.ParallelPopped = int(pops)
	}
	res.Acyclic = graph.AcyclicCountersNow().Sub(acy0)
	res.Duration = time.Since(start)
	return res
}

// newExploration sets up an exploration of p at the given worker count
// whose segment started at start and may pop maxPops states.
func (c *Checker) newExploration(ctx context.Context, p *vprog.Program, workers int, start time.Time, maxPops int64) *exploration {
	x := &exploration{c: c, prog: p, ctx: ctx, single: workers == 1, start: start, maxPops: maxPops}
	x.parkCond = sync.NewCond(&x.parkMu)
	if !c.DisableDedup {
		x.visited = NewVisitedSet()
		if !c.NoSymmetry {
			// Symmetry reduction rides on the dedup spine: when the
			// program declares (and vprog validates) symmetric thread
			// groups, every state is keyed by its canonical representative
			// and only one member per orbit is expanded.
			x.sym = p.SymSpec()
		}
	}
	x.workers = make([]*explorer, workers)
	for i := range x.workers {
		x.workers[i] = &explorer{x: x, c: c, id: i}
	}
	// Checkpoint-aware runs arm their checks up front; plain runs skip
	// all of this. Neither fingerprints the program before a checkpoint
	// is built or a resume validated.
	if c.Resume != nil || c.CheckpointSink != nil || c.CheckpointOnCancel || c.Budget != (Budget{}) {
		x.budgetOn = c.Budget.MaxDuration > 0 || c.Budget.MaxMemBytes > 0
		if c.CheckpointSink != nil && c.CheckpointInterval > 0 {
			x.snapEvery = int64(c.CheckpointInterval)
			x.lastSnap.Store(start.UnixNano())
		}
	}
	return x
}

// run explores from the checkpoint ck, or from the program's root graph
// when ck is nil, until the frontier drains or a result halts it.
func (x *exploration) run(ck *Checkpoint) *Result {
	defer func() {
		if x.visited != nil {
			x.visited.release()
			x.visited = nil
		}
	}()
	w0 := x.workers[0]
	w0.build()
	if len(w0.threads) == 0 {
		return &Result{
			Verdict: Error,
			Err:     fmt.Errorf("program %q has no threads", x.prog.Name),
		}
	}
	if err := x.ctx.Err(); err != nil {
		return &Result{Verdict: Canceled, Err: err, Message: "exploration canceled: " + err.Error()}
	}

	if ck != nil {
		if res := x.seedResume(ck); res != nil {
			return res
		}
		if x.inflight.Load() == 0 {
			// The checkpointed frontier was empty (taken at the instant
			// of drain): the run is already complete — merge what the
			// checkpoint carried.
			x.done.Store(true)
			return x.merge()
		}
	} else {
		g0 := graph.New(len(w0.threads), w0.vars.Inits(), w0.vars.Names())
		x.inflight.Store(1)
		w0.dq.pushTail(ExploreState{g: g0})
		x.queued.Store(1)
	}

	if !x.single {
		for _, w := range x.workers[1:] {
			x.wg.Add(1)
			go func(w *explorer) {
				defer x.wg.Done()
				w.build()
				x.runWorker(w)
			}(w)
		}
	}

	x.runWorker(w0)
	x.stopAll()
	x.wg.Wait()
	res := x.merge()
	if res.Verdict == Undecided {
		// All workers have exited: every unprocessed state sits in a
		// deque, and collecting them races with nothing.
		res.Checkpoint = x.buildCheckpoint()
	}
	return res
}

// seedResume restores a checkpoint into the exploration: identity
// validation, visited keys, cumulative counters, and the frontier —
// pushed onto worker 0's deque in the checkpoint's order, oldest first,
// which rebuilds a one-worker run's deque exactly, however long: its
// pops continue the interrupted run's, which is what makes a one-worker
// run's segments repeat its uninterrupted counters and counterexample.
// It returns a non-nil Error result when the checkpoint does not
// belong to this (model, program) pair.
func (x *exploration) seedResume(ck *Checkpoint) *Result {
	if want := x.c.Model.Name(); ck.Model != want {
		return &Result{Verdict: Error, Err: fmt.Errorf(
			"checkpoint was taken under model %q, this run verifies %q", ck.Model, want)}
	}
	if fp := x.prog.Fingerprint128(); ck.Prog != fp {
		return &Result{Verdict: Error, Err: fmt.Errorf(
			"checkpoint program fingerprint %x does not match this program (%x)", ck.Prog, fp)}
	}
	if ck.Sym != (x.sym != nil) {
		return &Result{Verdict: Error, Err: fmt.Errorf(
			"checkpoint was taken with symmetry reduction %v, this run has it %v (the visited keys are not comparable)",
			ck.Sym, x.sym != nil)}
	}
	w0 := x.workers[0]
	for i, st := range ck.frontier {
		if err := fitsProgram(st, len(w0.threads), len(w0.vars.Vars)); err != nil {
			return &Result{Verdict: Error, Err: fmt.Errorf("checkpoint state %d does not fit this program: %w", i, err)}
		}
	}
	x.baseStats = ck.Stats
	x.basePopped = ck.Popped
	if x.visited != nil {
		for _, k := range ck.visited {
			x.visited.InsertNew(k)
		}
	}
	for _, st := range ck.frontier {
		st.g.Pin() // the caller still holds the checkpoint and may resume from it again
		w0.dq.pushTail(st)
	}
	x.inflight.Store(int64(len(ck.frontier)))
	x.queued.Store(int64(len(ck.frontier)))
	return nil
}

// fitsProgram checks a frontier state read from a checkpoint against
// the shape of the program it is about to be replayed with: the decoder
// vouches for the graph's own invariants, not for what a file that
// names this program's fingerprint put around it.
func fitsProgram(st ExploreState, threads, locs int) error {
	g := st.g
	if g == nil {
		return fmt.Errorf("no graph")
	}
	if len(g.Threads) != threads || len(g.InitVals) != locs {
		return fmt.Errorf("graph has %d threads and %d locations, the program %d and %d",
			len(g.Threads), len(g.InitVals), threads, locs)
	}
	if !st.hasForced {
		return nil
	}
	if r := st.forcedR; r.Thread < 0 || r.Thread >= threads || r.Index != len(g.Threads[r.Thread]) {
		return fmt.Errorf("forced read %v is not the next event of a thread", r)
	}
	if e := g.Event(st.forcedW); e == nil || !e.IsWriteLike() {
		return fmt.Errorf("forced source %v is not a write of the graph", st.forcedW)
	}
	return nil
}

// step processes one popped exploration state. It returns nil to
// continue (children, if any, buffered in w.childBuf) or the deciding
// Result of this state (violation or internal error) — in which case no
// children were buffered.
func (w *explorer) step(it ExploreState) *Result {
	x := w.x
	w.curPerm = nil
	w.mem.Adopt(it.g)
	if !w.c.DisableDedup {
		var key graph.Hash128
		if x.sym != nil {
			// Symmetry reduction: dedup on the canonical key — the
			// minimal fingerprint over the declared thread permutations —
			// so an orbit of up to t! relabeled states collapses to
			// whichever member arrives first. curPerm (the relabeling onto
			// the canonical representative) then steers this step's thread
			// choice and witnesses so the explored subtree is the same
			// whichever member that was.
			k, perm, fast, tried := x.sym.Canonicalize(it.g, &w.symSc, it.hasForced, it.forcedR, it.forcedW)
			if !graph.IsIdentityPerm(perm) {
				w.stats.Canonicalized++
				w.curPerm = perm
			}
			if fast {
				w.stats.CanonFast++
			} else {
				w.stats.CanonRefined++
			}
			w.stats.CanonPruned += x.sym.PermCount() - tried
			key = k
		} else {
			key = it.key()
			if auditKey != nil {
				auditKey(x, it, key)
			}
		}
		if !x.visited.InsertNew(key) {
			w.stats.Duplicates++
			return nil
		}
	}

	// consM(G): discard graphs inconsistent with the memory model
	// before spending replays on them — with the closure-free
	// acyclicity engine the consistency verdict is usually cheaper than
	// reconstructing three program states, and an inconsistent graph
	// needs neither. Candidates that break atomicity or coherence never
	// get here (see admit); the model stays the only authority on the
	// rest — porf, psc, TSO's global order, SC's total order — and on
	// revisit restrictions, whose relations no parent holds.
	if !w.c.Model.Consistent(it.g) {
		w.stats.Inconsist++
		return nil
	}

	// Replay every thread against the graph (reconstructing the program
	// state, Fig. 6), collecting pending ops and await iteration
	// records, each through the worker's replay memo. A state carrying its
	// producer's results takes them for every thread but the one its
	// extension changed.
	if w.rres == nil {
		w.rres = make([]*replayResult, len(w.threads))
	}
	rres := w.rres
	var snap []*replayResult
	if it.snap != nil {
		snap = unsafe.Slice(it.snap, len(rres))
	}
	for t := range w.threads {
		if snap != nil && t != int(it.changed) {
			rres[t] = snap[t]
			continue
		}
		rres[t] = w.replay(it.g, t)
		if rres[t].err != nil {
			return &Result{Verdict: Error, Err: rres[t].err}
		}
	}
	// ¬W(G): discard wasteful graphs (Def. 2).
	if wasteful(it.g, rres) {
		w.stats.Wasteful++
		return nil
	}
	// Retry-free-twin collapse: discard graphs in which an await
	// succeeded after read-only failed iterations (see collapsedRetry).
	if collapsedRetry(rres) {
		w.stats.Collapsed++
		return nil
	}

	// A pending forced rf (from a revisit) is applied before anything
	// else: the designated thread takes its step with the chosen source.
	if it.hasForced {
		t := it.forcedR.Thread
		p := &rres[t].pending
		if (p.kind != opRead && p.kind != opUpdate) || len(it.g.Threads[t]) != it.forcedR.Index {
			return &Result{Verdict: Error,
				Err: fmt.Errorf("revisit target %v is not the next read of its thread", it.forcedR)}
		}
		w.extendReadLike(it.g, t, p, []graph.RF{graph.FromW(it.forcedW)}, false)
		return nil
	}

	// Collect runnable threads. Under a non-identity canonicalization the
	// chosen thread is the one with the minimal canonical slot rather
	// than the minimal thread id: two states that are relabelings of each
	// other then extend the *same canonical* thread, so their subtrees
	// stay relabelings of each other and the reduction holds inductively.
	// (Any two argmin permutations differ by an automorphism of the
	// canonical graph, which makes this choice orbit-stable.)
	runnable := -1
	anyBlocked := false
	allFinished := true
	for t := range w.threads {
		if rres[t].blocked {
			anyBlocked = true
			allFinished = false
			continue
		}
		if rres[t].finished {
			continue
		}
		allFinished = false
		if runnable < 0 || (w.curPerm != nil && w.curPerm[t] < w.curPerm[runnable]) {
			runnable = t
		}
	}

	if runnable < 0 {
		if anyBlocked {
			// TG = ∅ with ⊥ reads present: a potential AT violation. It is
			// real iff some ⊥ read cannot be resolved by any consistent,
			// non-wasteful write (§1.3).
			if id, ok := w.unresolvableBottom(it.g, rres); ok {
				if w.curPerm != nil {
					id = x.sym.MapID(w.curPerm, id)
				}
				return &Result{
					Verdict: ATViolation,
					Message: fmt.Sprintf("await of thread T%d never terminates: read %v has no remaining write to observe", id.Thread, id),
					Witness: w.canonWitness(it.g),
				}
			}
			w.stats.Blocked++
			return nil
		}
		if allFinished {
			w.stats.Executions++
			if w.final != nil {
				ok, msg := w.final(func(v *vprog.Var) uint64 {
					return it.g.FinalVal(graph.Loc(v.ID))
				})
				if !ok {
					// Like the witness, the message is the canonical
					// representative's: every orbit member reports the same.
					wit := w.canonWitness(it.g)
					if wit != it.g {
						_, msg = w.final(func(v *vprog.Var) uint64 {
							return wit.FinalVal(graph.Loc(v.ID))
						})
					}
					return &Result{
						Verdict: SafetyViolation,
						Message: "final-state check failed: " + msg,
						Witness: wit,
					}
				}
			}
		}
		return nil
	}

	// Extend with the next instruction of the chosen thread.
	p := &rres[runnable].pending
	switch p.kind {
	case opError:
		e := w.mkEvent(it.g, runnable, p)
		g2 := it.g.Clone()
		g2.Append(e)
		return &Result{
			Verdict: SafetyViolation,
			Message: "assertion failed: " + p.msg,
			Witness: w.canonWitness(g2),
		}
	case opFence:
		g2 := it.g.Clone()
		e := w.mkEvent(g2, runnable, p)
		g2.Append(e)
		g2.NoteExtended(it.g, e)
		w.push(ExploreState{g: g2}, runnable)
	case opWrite:
		w.extendWrite(it.g, runnable, p)
	case opRead, opUpdate:
		choices := w.rfbuf[:0]
		for _, wr := range it.g.Mo[p.loc] {
			choices = append(choices, graph.FromW(wr))
		}
		w.rfbuf = choices
		withBottom := p.inAwait && w.bottomCandidate(it.g, p, rres[runnable].spans)
		w.extendReadLike(it.g, runnable, p, choices, withBottom)
	}
	return nil
}

// bottomCandidate reports whether the pending await read could, as a ⊥
// read, ever anchor an await-termination witness — the ⊥ sibling is
// pushed only then. A stuck graph reports a violation only when every
// blocked ⊥ read is unresolvable (unresolvableBottom), and a ⊥ read is
// unresolvable only if *no* write can serve it consistently outside the
// W(G) filter. Reading the mo-maximal write at the trailing position of
// a blocked thread is always consistent (resolveWith resolves updates
// degraded, so there is no fr out of the read, and no later event can
// ever become hb-ordered before it), so the only way a ⊥ read can be
// unresolvable is for the mo-maximal write to be the *forbidden* source
// — the one its counterpart read in the previous failed iteration,
// reachable only when the read sits at the last position of iteration
// ≥ 1 with the iteration prefix rf-equal to the previous iteration
// (atcheck.resolvable). And since later writes can only either leave
// the current mo-maximum in place or supersede it with a write that is
// not the forbidden source, a read whose previous counterpart is not
// the mo-maximum now stays resolvable in every extension. ⊥ siblings
// anywhere else — iteration 0, interior positions, diverged prefixes,
// superseded counterparts — head subtrees whose every stuck descendant
// is discarded as resolvable, so they are never pushed.
//
// This gate is also why await retry chains cannot starve the other
// threads: the extension scheduler only switches threads at a block,
// and a spinning thread's monotone retry chain (coherence forces its
// reads up mo; wasteful() kills exact repeats) always funnels into the
// caught-up configuration — prefix repeated, counterpart mo-maximal —
// where the gate opens, the ⊥ blocks the thread, and the remaining
// threads run (their future writes then reach the chain's reads through
// revisits, exactly as they reach a bounded encoding's).
func (w *explorer) bottomCandidate(g *graph.Graph, p *pending, spans []iterRec) bool {
	if p.awaitIter == 0 {
		return false // no previous iteration: always resolvable
	}
	cur, prev := iterPair(spans, p.awaitSeq, p.awaitIter)
	if cur == nil || prev == nil || !prev.Complete || !prev.Failed {
		return true // defensive: keep the ⊥ branch when spans are surprising
	}
	// The pending read sits at position len(cur.Reads) once added.
	forbidden, ok := forbiddenSource(g, cur.Reads, prev)
	if !ok {
		return false
	}
	mo := g.Mo[p.loc]
	if len(mo) == 0 {
		return true
	}
	return forbidden == graph.FromW(mo[len(mo)-1])
}

// iterPair returns the records of iteration iter of await seq and of
// the iteration before it, nil where spans holds none.
func iterPair(spans []iterRec, seq, iter int) (cur, prev *iterRec) {
	for i := range spans {
		s := &spans[i]
		if s.Seq != seq {
			continue
		}
		switch s.Iter {
		case iter:
			cur = s
		case iter - 1:
			prev = s
		}
	}
	return cur, prev
}

// sameSources reports whether the reads of a read from the same writes
// as the reads of b at the same positions; b holds at least len(a).
func sameSources(g *graph.Graph, a, b []graph.EventID) bool {
	for k := range a {
		if g.RfOf(a[k]) != g.RfOf(b[k]) {
			return false
		}
	}
	return true
}

// forbiddenSource is the one rf choice that would make the read at
// position len(prefix) of an await iteration complete prev's rf vector
// again (W(G), see wasteful): prev's last read's source, when the read
// is at prev's last position and prefix repeats prev's sources up to it.
// Anywhere else every source makes progress, and ok is false.
func forbiddenSource(g *graph.Graph, prefix []graph.EventID, prev *iterRec) (rf graph.RF, ok bool) {
	pos := len(prefix)
	if pos != len(prev.Reads)-1 || !sameSources(g, prefix, prev.Reads) {
		return graph.RF{}, false
	}
	return g.RfOf(prev.Reads[pos]), true
}

// canonWitness maps a violating graph onto the canonical representative
// of its orbit when the popped state was admitted under a non-identity
// relabeling, so the reported counterexample is the orbit's, whichever
// member the explorer reached. (Every worker count reports the
// one-worker run's counterexample anyway; this fixes which relabeling
// that run prints.)
func (w *explorer) canonWitness(g *graph.Graph) *graph.Graph {
	if w.curPerm == nil {
		return g
	}
	return w.x.sym.ApplyPerm(g, w.curPerm)
}

// mkEvent builds the event for pending op p as the next event of thread
// t in g (value fields filled by the caller for read-likes).
func (w *explorer) mkEvent(g *graph.Graph, t int, p *pending) *graph.Event {
	var kind graph.Kind
	switch p.kind {
	case opRead:
		kind = graph.KRead
	case opWrite:
		kind = graph.KWrite
	case opUpdate:
		kind = graph.KUpdate
	case opFence:
		kind = graph.KFence
	case opError:
		kind = graph.KError
	}
	seq, iter := -1, 0
	if p.inAwait {
		seq, iter = p.awaitSeq, p.awaitIter
	}
	return &graph.Event{
		ID:        graph.EventID{Thread: t, Index: len(g.Threads[t])},
		Kind:      kind,
		Mode:      p.mode,
		Loc:       p.loc,
		Val:       p.val,
		Msg:       p.msg,
		AwaitSeq:  seq,
		AwaitIter: iter,
	}
}

// push buffers a child state, guarding graph size. A child that extends
// the popped graph by one event of thread changed (≥ 0; a revisit passes
// -1) shares the step's replay results. Children publish to
// the worker's deque only after the whole step finishes
// (flushChildren), so thieves never observe a graph its producer is
// still touching — which matters for writes as well as reads: the
// producer clones a just-pushed graph again for revisit generation,
// and Graph.Clone mutates its receiver (it clears the rf-row ownership
// bits on both sides). The deferred publication is the happens-before
// edge that keeps those mutations private.
func (w *explorer) push(it ExploreState, changed int) {
	if it.g.NumEvents() > w.c.MaxEvents {
		// Dropping the branch would let the run end "ok" over a truncated
		// state space: execute turns the flag into an Error verdict.
		w.oversize = true
		return
	}
	if changed >= 0 {
		it.snap, it.changed = w.snapOf(), int32(changed)
	}
	w.stats.Pushed++
	w.childBuf = append(w.childBuf, it)
}

// admit runs the birth filter on candidate c of the consistent graph g,
// whose relations the pop's Model.Consistent left memoized. The filter
// tests only what every model implies (see mm.Model), so a rejected
// candidate could never have survived its own pop; counting it here is
// all that is left of it. An incoherent child is not built at all; a
// write-like that only splits an update is built, unpushed, for its
// revisits (see extendReadLike).
func (w *explorer) admit(g *graph.Graph, c graph.Candidate) graph.Admission {
	a := graph.RelsOf(g).Admit(c)
	if a != graph.Admissible {
		w.stats.Filtered++
	}
	return a
}

// pushChild pushes the one-event child g2 of g, which gives thread t the
// event e, if the birth filter admitted it.
func (w *explorer) pushChild(a graph.Admission, g, g2 *graph.Graph, e *graph.Event, t int) {
	if a == graph.Admissible {
		g2.NoteExtended(g, e)
		w.push(ExploreState{g: g2}, t)
	}
}

// extendWrite adds a plain write: one child per admissible
// modification-order placement, each followed by its revisit children
// (which, their graphs being restrictions, never carry the step's replay
// results).
func (w *explorer) extendWrite(g *graph.Graph, t int, p *pending) {
	npos := len(g.Mo[p.loc])
	for pos := 1; pos <= npos; pos++ {
		a := w.admit(g, graph.Candidate{Thread: t, Kind: graph.KWrite, Mode: p.mode, Loc: p.loc, MoPos: pos})
		if a == graph.Incoherent {
			continue
		}
		g2 := g.Clone()
		e := w.mkEvent(g2, t, p)
		g2.Append(e)
		g2.InsertMo(p.loc, e.ID, pos)
		w.pushWrite(a, g, g2, e, t, p)
	}
}

// pushWrite pushes the child g2 of g, which gives thread t the
// value-changing write-like event e, if the birth filter admitted it, and
// then the revisits e seeds — unless collapsesAtBirth already knows their
// fate: g2 is then counted as collapsed here instead of at its pop, and
// nothing is pushed.
func (w *explorer) pushWrite(a graph.Admission, g, g2 *graph.Graph, e *graph.Event, t int, p *pending) {
	if w.collapsesAtBirth(g2, t, p, w.rres[t].spans) {
		w.stats.Collapsed++
		if auditBirth != nil {
			auditBirth(w, g, g2, e)
		}
		w.mem.Release(g2)
		return
	}
	w.pushChild(a, g, g2, e, t)
	w.pushRevisits(g, g2, e, a == graph.SplitsUpdate)
}

// auditKey, when set, sees every raw structural key step computes, with
// the state it keys, before the visited set is asked. Test-only: see
// AuditDedupKey in export_test.go.
var auditKey func(x *exploration, it ExploreState, k graph.Hash128)

// auditBirth, when set, sees every child pushWrite rejects, before it is
// released. Test-only: see AuditBirthRule in export_test.go.
var auditBirth func(w *explorer, g, g2 *graph.Graph, wv *graph.Event)

// collapsesAtBirth decides collapsedRetry for the child g2 before it is
// pushed. Its new write-like event of thread t (built from pending p) can
// complete a collapse only in an await, at an iteration after the first,
// whose earlier iterations (spans: thread t's, replayed against the
// parent) wrote nothing; one replay of thread t against g2 then says
// whether the await now succeeds. A hit decides the revisits too: each
// keeps the event's whole porf prefix — all of thread t and every write
// it read — so thread t replays in them as in g2, and they would be
// cloned, restricted and given relations only to collapse at their own
// pops. Reads and degraded updates are not probed: the child is all they
// produce, and its pop collapses it for the same one replay.
func (w *explorer) collapsesAtBirth(g2 *graph.Graph, t int, p *pending, spans []iterRec) bool {
	if !p.inAwait || p.awaitIter == 0 {
		return false
	}
	for i := range spans {
		if s := &spans[i]; s.Seq == p.awaitSeq && s.Iter < p.awaitIter && s.Wrote {
			return false
		}
	}
	res := w.replay(g2, t)
	return res.err == nil && res.collapsed()
}

// extendReadLike adds a read or update with each admissible rf choice
// in choices (plus a ⊥ branch when the read sits in an await), handling
// update degradation, atomic mo placement, and revisits by the update's
// write part.
//
// An incoherent candidate — the only way a read or degraded update is
// rejected — is never built. An update rejected only because it splits
// another update from their common rf source (two CASes racing on one
// write) is built but not pushed: it is the sole producer of the revisit
// that swaps the two in mo, where a restriction has dropped the other
// update.
func (w *explorer) extendReadLike(g *graph.Graph, t int, p *pending, choices []graph.RF, withBottom bool) {
	for _, rf := range choices {
		c := graph.Candidate{Thread: t, Kind: graph.KRead, Mode: p.mode, Loc: p.loc, RF: rf.W}
		rval := g.WriteVal(rf.W)
		var wval graph.Val
		if p.kind == opUpdate {
			c.Kind = graph.KUpdate
			wval, c.Degraded = p.compute(rval)
		}
		writes := p.kind == opUpdate && !c.Degraded
		a := w.admit(g, c)
		if a == graph.Incoherent {
			continue
		}
		g2 := g.Clone()
		e := w.mkEvent(g2, t, p)
		e.RVal = rval
		e.Degraded = c.Degraded
		if writes {
			e.Val = wval
		}
		g2.Append(e)
		g2.SetRF(e.ID, rf)
		if writes {
			src := g2.MoIndex(p.loc, rf.W)
			if src < 0 {
				continue // source vanished (cannot happen)
			}
			g2.InsertMo(p.loc, e.ID, src+1)
		}
		if writes {
			w.pushWrite(a, g, g2, e, t, p)
		} else {
			w.pushChild(a, g, g2, e, t)
		}
	}
	if withBottom {
		// ⊥ branch: the potential AT violation marker. Pushed last so the
		// DFS examines it first, surfacing hangs early. A ⊥ update is
		// degraded — it read nothing and writes nothing, so it must not
		// claim a place in mo. A ⊥ read adds no rf, fr or sw edge, so
		// there is nothing for the birth filter to test.
		g2 := g.Clone()
		e := w.mkEvent(g2, t, p)
		if p.kind == opUpdate {
			e.Degraded = true
		}
		g2.Append(e)
		g2.SetRF(e.ID, graph.BottomRF)
		g2.NoteExtended(g, e)
		w.push(ExploreState{g: g2}, t)
	}
}

// pushRevisits generates the write→read revisit children for the
// freshly added write-like event wv in g2 = g + wv (the CalcRevisits of
// Fig. 6):
// each same-location read r not in wv's porf prefix may instead read
// from wv; the graph is restricted to the events added before r plus
// wv's porf prefix, and r's re-addition is forced to read from wv.
//
// An incoherent wv never gets here: every restriction keeps wv's porf
// prefix, and with it the incoherence of g2 (the cycle runs through wv's
// hb predecessors and their rf sources, all in the prefix), so it has no
// revisit worth generating. splits says the birth filter found wv
// between an update and that update's rf source: the atomicity violation
// survives exactly in the restrictions that keep the displaced update —
// and g2 itself was built only to be read here: nobody else holds it, so
// it is released on the way out.
func (w *explorer) pushRevisits(g, g2 *graph.Graph, wv *graph.Event, splits bool) {
	var split *graph.Event
	if splits {
		order := g2.Mo[wv.Loc]
		split = g2.Event(order[g2.MoIndex(wv.Loc, wv.ID)+1])
	}
	porf := g2.PorfPrefix(wv.ID)
	// Every same-location read, in (thread, index) order, visited in
	// place: no slice of them is built per write.
	for _, revs := range g2.Threads {
		for _, rdEv := range revs {
			if !rdEv.IsReadLike() || rdEv.Loc != wv.Loc {
				continue
			}
			w.pushRevisit(g, g2, wv, porf, rdEv, split)
		}
	}
	porf.Release()
	if splits {
		w.mem.Release(g2)
	}
}

// pushRevisit generates the revisit child (if any) for one candidate
// read rdEv against the freshly added write wv. split, when non-nil, is
// the update wv displaced in mo: a restriction that keeps it is
// inconsistent. The child notes that it is a restriction of the
// consistent g plus wv: if it survives dedup its relations are rows and
// columns of g's, which it keeps alive until then.
func (w *explorer) pushRevisit(g, g2 *graph.Graph, wv *graph.Event, porf *graph.EventSet, rdEv *graph.Event, split *graph.Event) {
	rd := rdEv.ID
	if rd == wv.ID || porf.Has(rdEv) {
		return
	}
	if g2.RfOf(rd) == graph.FromW(wv.ID) {
		return
	}
	rstamp := rdEv.Stamp
	keep := graph.NewEventSetPooled(g2.NextStamp)
	defer keep.Release()
	for _, evs := range g2.Threads {
		for _, e := range evs {
			if e.Stamp < rstamp || porf.Has(e) || e.ID == wv.ID {
				keep.Add(e)
			}
		}
	}
	keep.Remove(rdEv)
	// Closure-drop: a kept read whose rf source was dropped cannot
	// keep its value; truncate its thread there and iterate.
	for changed := true; changed; {
		changed = false
		for _, evs := range g2.Threads {
			alive := true
			for _, e := range evs {
				if !keep.Has(e) {
					alive = false
					continue
				}
				if !alive {
					keep.Remove(e)
					changed = true
					continue
				}
				if e.IsReadLike() {
					rf := g2.RfOf(e.ID)
					if !rf.Bottom && !rf.W.IsInit() && !keep.Has(g2.Event(rf.W)) {
						keep.Remove(e)
						alive = false
						changed = true
					}
				}
			}
		}
	}
	if !keep.Has(wv) {
		return // the new write itself was dropped: nothing to revisit
	}
	// r must be re-addable as the next event of its thread.
	pfx := 0
	for _, e := range g2.Threads[rd.Thread] {
		if !keep.Has(e) {
			break
		}
		pfx++
	}
	if pfx != rd.Index {
		return
	}
	if split != nil && keep.Has(split) {
		w.stats.Filtered++
		return
	}
	g3 := g2.Clone()
	g3.RestrictTo(keep)
	g3.NoteRestricted(g, wv)
	w.stats.Revisits++
	w.push(ExploreState{g: g3, hasForced: true, forcedR: rd, forcedW: wv.ID}, -1)
}

// collapsedRetry implements the retry-free-twin collapse, the reduction
// that makes await encodings of CAS loops cheaper than their bounded
// unrollings: a graph in which some await *succeeded* at iteration
// k > 0 after failed iterations that performed no store and no
// value-changing update is redundant and pruned.
//
// Soundness: the failed iterations contributed only read events.
// Removing read events from a consistent graph keeps it consistent —
// reads only *add* constraints (rf, fr, CoRR edges); no axiom demands
// their presence — so the graph in which the await takes its successful
// rf vector at iteration 0 directly is also consistent and exhibits the
// identical behavior: the same writes with the same mo, the same values
// flowing into every later read, the same assertion valuations and
// final state. That twin is explored in the sibling branch where the
// await's first read already took the success source (or is steered
// onto it by a revisit once the source write is added), so every
// descendant of the collapsed graph is a behavioral duplicate of one of
// the twin's descendants. The collapse must not fire when a failed
// iteration wrote: an AwaitDo retry may store to owned locations (a
// Treiber push re-links its node each attempt), and those stores sit in
// mo where later reads of other threads may branch onto them — the
// retry-free twin simply does not contain them, so such graphs are kept
// and explored in full.
//
// Await-termination analysis is unaffected: the collapse fires only
// when an iteration succeeds, so the failed-iteration chains that feed
// the ⊥ analysis — and the G∞* witnesses at their ends, where no
// iteration ever succeeds — are never touched.
func collapsedRetry(rres []*replayResult) bool {
	for _, res := range rres {
		if res.collapsed() {
			return true
		}
	}
	return false
}

// collapsed is collapsedRetry for one thread's result.
func (res *replayResult) collapsed() bool {
	seq := -1
	wrote := false
	for i := range res.spans {
		s := &res.spans[i]
		if s.Seq != seq {
			seq, wrote = s.Seq, false
		}
		if !s.Complete {
			continue
		}
		if s.Failed {
			wrote = wrote || s.Wrote
			continue
		}
		if s.Iter > 0 && !wrote {
			return true
		}
	}
	return false
}

// wasteful implements W(G) (Def. 2), generalized to multi-operation
// iterations: some await's reads (position by position — loads and
// updates alike) observe the same rf vector in two consecutive complete
// iterations, the first of which failed. Thread bodies are
// deterministic in the values their reads return, and rf-equal reads
// return equal values, so the second iteration retraces the first —
// same branches, same (value-identical) owned stores — and under the
// Bounded-Effect contracts it cannot have changed what any other
// thread observes: the execution is a longer witness of a behavior a
// shorter graph already covers. A successful value-changing update in
// iteration two is impossible here — it would sit mo-adjacent to
// iteration one's update on the same rf source, which atomicity
// (checked at birth, and again by Model.Consistent before this filter)
// already rules out.
// Iterations of unequal read counts never compare equal: determinism
// again — a same-rf prefix replays identically, so the counts could
// not diverge.
func wasteful(g *graph.Graph, rres []*replayResult) bool {
	for _, res := range rres {
		spans := res.spans
		for i := 0; i+1 < len(spans); i++ {
			a, b := spans[i], spans[i+1]
			if a.Seq != b.Seq || b.Iter != a.Iter+1 {
				continue
			}
			if !a.Complete || !a.Failed || !b.Complete {
				continue
			}
			if len(a.Reads) == len(b.Reads) && sameSources(g, a.Reads, b.Reads) {
				return true
			}
		}
	}
	return false
}
