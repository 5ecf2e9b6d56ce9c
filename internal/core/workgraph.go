package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/vprog"
)

// This file is the work-graph scheduler: one Checker.Run is no longer a
// private recursive stack machine but a shared frontier of ExploreState
// items that any number of workers execute cooperatively. Each worker
// owns a deque (LIFO-local execution, FIFO stealing), and the deques,
// which grow as they must, are the whole frontier; a
// hash-sharded VisitedSet arbitrates which worker expands each state;
// and the first violation any worker reaches ends the run, as it does
// at one worker. A parallel run that ends so is then run again from the
// root at one worker, whose result it reports (Checker.RunCtx), so a
// run's verdict, counterexample and counters are the one-worker run's
// at every worker count.
//
// A run with WorkersPerRun > 1 starts all of its workers up front and
// keeps them until the frontier drains or a result halts it: the
// workers are the run's own, whatever launched it.

// explorer is one worker's private view of an exploration. Everything
// a step touches — its own build of the program (thread closures are
// not reentrant across concurrent replays), replay scratch, child
// buffer, statistics — lives here, so executing an item never contends
// beyond the deque locks and the visited set.
type explorer struct {
	x  *exploration
	c  *Checker
	id int

	// Per-worker instantiation of the program under test.
	threads []vprog.ThreadFunc
	vars    *vprog.VarSet
	final   vprog.FinalCheck

	dq       deque
	childBuf []ExploreState
	oversize bool // the current step built a child over MaxEvents (see push)
	stealBuf [stealBatch]ExploreState

	// mem recycles the graph headers and relation sets of the states this
	// worker is the last to need (see graph.FreeList for the rule).
	mem graph.FreeList

	// Replay state. memo serves every replay (see replayMemo); rmem is the
	// scratch its misses replay in; rres is the popped state's results,
	// one entry per thread; cur is rres copied out for the children of the
	// step in progress, once it pushes one (see snapOf), and snaps the
	// arena such copies are carved from.
	memo  replayMemo
	rmem  replayMem
	rres  []*replayResult
	cur   []*replayResult
	snaps []*replayResult
	rfbuf []graph.RF

	// Symmetry-reduction state of the item being executed. curPerm is
	// the relabeling onto the canonical representative (nil when the
	// popped graph already is canonical, or symmetry is off), valid from
	// the step's Canonicalize until this worker's next pop.
	symSc   graph.SymScratch
	curPerm []int32

	stats    Stats
	executed int
	steals   int
	stolen   int
	snapTick int // items since this worker last considered a snapshot
}

// build instantiates the program for this worker. Build is
// deterministic (vprog.Program contract), so every worker sees the same
// variable layout the root graph was created with.
func (w *explorer) build() {
	w.vars = &vprog.VarSet{}
	w.threads, w.final = w.x.prog.Build(w.vars)
}

// exploration is the shared work-graph of one Checker run.
type exploration struct {
	c    *Checker
	prog *vprog.Program
	ctx  context.Context

	// single selects one worker: DFS order, no stealing, no parking.
	single bool
	// rerun marks the one-worker run that reports a violation a parallel
	// run found, and every resumed segment of it: its checkpoints say so,
	// and resume at one worker (see Checker.Resume).
	rerun bool

	visited *VisitedSet
	// sym, when non-nil, is the program's validated thread-symmetry
	// spec: states are deduplicated on canonical keys, collapsing each
	// orbit of relabeled states to one explored representative.
	sym *graph.SymSpec

	workers []*explorer

	queued   atomic.Int64 // states sitting in deques (advisory, for parking)
	inflight atomic.Int64 // queued + currently executing; 0 <=> exploration drained
	popped   atomic.Int64 // this segment's pops: the graph cap and cancellation cadence

	parkMu   sync.Mutex
	parkCond *sync.Cond
	parked   int
	parkedN  atomic.Int32 // mirror of parked, readable without the lock
	done     atomic.Bool

	// hard is the result that ended the run (see halt); nil while none
	// has.
	resMu sync.Mutex
	hard  *Result

	// Crash-safety state (see checkpoint.go). start anchors the
	// MaxDuration budget; maxPops is the graph cap; budgetOn gates the
	// sampled budget checks; baseStats and basePopped carry the counters
	// of prior segments when this run resumed from a checkpoint.
	start      time.Time
	maxPops    int64
	budgetOn   bool
	baseStats  Stats
	basePopped int64

	// Periodic snapshots. Workers hold snapGate for reading around
	// each (take item, execute) pair; the snapshotting worker takes it
	// for writing, which quiesces everyone between items — the instant
	// at which every unprocessed state sits in a deque. snapping elects
	// one snapshotter; lastSnap (unix nanos) paces them at snapEvery.
	snapGate  sync.RWMutex
	snapping  atomic.Bool
	lastSnap  atomic.Int64
	snapEvery int64

	wg sync.WaitGroup
}

// runWorker is the scheduling loop every worker executes: take the next
// item (local LIFO, then steal), run it, and detect global completion
// when the in-flight count drains to zero.
//
// When periodic snapshots are enabled the (take, execute, retire) unit
// runs under the snapshot gate's read side, and parking happens only
// outside it — the gate's writer therefore observes the run at an
// instant where no worker holds a state privately, which is what makes
// the captured frontier complete.
func (x *exploration) runWorker(w *explorer) {
	gated := x.snapEvery > 0
	for {
		if gated {
			x.snapGate.RLock()
		}
		st, ok, wait := x.tryNext(w)
		if !ok {
			if gated {
				x.snapGate.RUnlock()
			}
			if !wait {
				return
			}
			x.park()
			continue
		}
		x.execute(w, st)
		drained := x.inflight.Add(-1) == 0
		if gated {
			x.snapGate.RUnlock()
		}
		if drained {
			x.stopAll()
			return
		}
		if gated {
			if w.snapTick++; w.snapTick >= snapCheckEvery {
				w.snapTick = 0
				x.maybeSnapshot()
			}
		}
	}
}

// snapCheckEvery is how many executed items pass between a worker's
// glances at the snapshot clock: one time.Now per this many items.
const snapCheckEvery = 16

// tryNext finds work for w without blocking. ok means st is valid;
// otherwise wait distinguishes "park and retry" (frontier momentarily
// empty) from "worker is finished" (done flag or sequential drain).
func (x *exploration) tryNext(w *explorer) (st ExploreState, ok, wait bool) {
	if x.done.Load() {
		return ExploreState{}, false, false
	}
	if st, ok := w.dq.popTail(); ok {
		x.queued.Add(-1)
		return st, true, false
	}
	if x.single {
		// One worker, empty deque: the run is drained (the inflight
		// count hit zero on the previous decrement).
		return ExploreState{}, false, false
	}
	if st, ok := x.steal(w); ok {
		x.queued.Add(-1)
		return st, true, false
	}
	return ExploreState{}, false, true
}

// execute runs one item: global guards (cancellation cadence, graph cap,
// budget), then the step, then either publishes the children or halts
// the run on the step's violation or error. Every guard fires BEFORE
// the state is counted as processed, so a guard-stopped state can be
// returned to the frontier intact (haltUndecided) and the checkpoint's
// counters agree exactly with the work actually done.
func (x *exploration) execute(w *explorer, st ExploreState) {
	n := x.popped.Add(1)
	if n%cancelCheckEvery == 0 && x.ctx.Err() != nil {
		err := x.ctx.Err()
		msg := "exploration canceled: " + err.Error()
		if x.c.CheckpointOnCancel {
			x.haltUndecided(w, st, msg)
		} else {
			x.halt(&Result{Verdict: Canceled, Err: err, Message: msg})
		}
		return
	}
	if n > x.maxPops {
		x.haltUndecided(w, st, fmt.Sprintf("budget: segment reached MaxGraphs=%d popped states; resume from the checkpoint "+
			"or raise the budget (-budget-graphs) — a program outside the Bounded-Length principle never finishes", x.c.Budget.graphCap()))
		return
	}
	if x.budgetOn {
		if msg := x.overBudget(n); msg != "" {
			x.haltUndecided(w, st, msg)
			return
		}
	}
	w.stats.Popped++
	w.executed++
	res := w.step(st)
	w.cur = nil
	if w.oversize {
		w.oversize = false
		res = &Result{Verdict: Error, Err: fmt.Errorf(
			"graph exceeded MaxEvents=%d (raise it, or the program may violate the Bounded-Length principle)", w.c.MaxEvents)}
	}
	if res == nil {
		// The state is spent: its children are out, and whichever of them
		// — or this — drops the last reference recycles it. A deciding
		// state is not released: its graph may be the witness.
		w.flushChildren()
		w.mem.Release(st.g)
		return
	}
	// A deciding item never contributes children (step returns before
	// pushing on every violation path); drop any stale buffer content
	// defensively.
	w.childBuf = w.childBuf[:0]
	x.halt(res)
}

// flushChildren publishes the children of the item just executed. They
// are buffered during the step and pushed only afterwards, so a graph
// is never visible to thieves while its producer still reads it (the
// revisit calculation inspects a child graph after creating it).
// Publication order matches the historical stack: the LIFO pop then
// examines children in exactly the order the sequential DFS did.
func (w *explorer) flushChildren() {
	buf := w.childBuf
	if len(buf) == 0 {
		return
	}
	x := w.x
	// inflight before queued: a thief may execute and retire a child the
	// instant it lands in the deque, and the drain detector must never
	// see inflight dip to zero while states exist.
	x.inflight.Add(int64(len(buf)))
	for _, ch := range buf {
		w.dq.pushTail(ch)
	}
	x.queued.Add(int64(len(buf)))
	for i := range buf {
		buf[i] = ExploreState{}
	}
	w.childBuf = buf[:0]
	if !x.single {
		x.wake()
	}
}

// steal scans the other workers' deques round-robin from w and takes a
// batch from the first non-empty head. The first stolen state is
// executed immediately; the rest seed w's own deque.
func (x *exploration) steal(w *explorer) (ExploreState, bool) {
	for i := 1; i < len(x.workers); i++ {
		v := x.workers[(w.id+i)%len(x.workers)]
		n := v.dq.stealHead(w.stealBuf[:], stealBatch)
		if n == 0 {
			continue
		}
		w.steals++
		w.stolen += n
		st := w.stealBuf[0]
		for j := 1; j < n; j++ {
			w.dq.pushTail(w.stealBuf[j])
		}
		for j := 0; j < n; j++ {
			w.stealBuf[j] = ExploreState{}
		}
		return st, true
	}
	return ExploreState{}, false
}

// park blocks until new work is published or the run ends. The queued
// counter is re-checked under the lock, and wake signals under the same
// lock, so a publication between the last failed steal and the wait
// cannot be lost.
func (x *exploration) park() {
	x.parkMu.Lock()
	x.parked++
	x.parkedN.Store(int32(x.parked))
	for x.queued.Load() == 0 && !x.done.Load() {
		x.parkCond.Wait()
	}
	x.parked--
	x.parkedN.Store(int32(x.parked))
	x.parkMu.Unlock()
}

// wake rouses parked workers after a publication. The common case — no
// one parked — costs one atomic load.
func (x *exploration) wake() {
	if x.parkedN.Load() == 0 {
		return
	}
	x.parkMu.Lock()
	if x.parked > 0 {
		x.parkCond.Broadcast()
	}
	x.parkMu.Unlock()
}

// stopAll ends the run: drained, halted, or canceled.
func (x *exploration) stopAll() {
	x.done.Store(true)
	x.parkMu.Lock()
	x.parkCond.Broadcast()
	x.parkMu.Unlock()
}

// overBudget checks this segment's wall-clock and heap caps against the
// nth pop, sampled at cadences that keep their cost invisible (the
// graph cap is execute's one compare per pop). It returns the stop
// reason, or "" to proceed.
func (x *exploration) overBudget(n int64) string {
	b := x.c.Budget
	if b.MaxDuration > 0 && n%64 == 0 {
		if el := time.Since(x.start); el > b.MaxDuration {
			return fmt.Sprintf("budget: segment ran %v (MaxDuration %v)", el.Round(time.Millisecond), b.MaxDuration)
		}
	}
	if b.MaxMemBytes > 0 && n%8192 == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > b.MaxMemBytes {
			return fmt.Sprintf("budget: heap at %d bytes (MaxMemBytes %d)", ms.HeapAlloc, b.MaxMemBytes)
		}
	}
	return ""
}

// haltUndecided stops the run at a budget limit (or a checkpointing
// cancellation): the unprocessed triggering state goes back to the
// frontier — its pop uncounted, so the checkpoint's counters describe
// exactly the processed states — and the run's verdict becomes
// Undecided. Racing workers each return their own state; the first
// result wins, and halt never lets Undecided displace a decisive one.
//
// The state returns to the TAIL of the worker's own deque, where it
// was popped from: it was the next state the uninterrupted run would
// have executed, and the tail is the one position from which the
// resumed run pops it first again — a one-worker run's segments repeat
// its uninterrupted pops, counters and counterexample only because of
// that exactness.
func (x *exploration) haltUndecided(w *explorer, st ExploreState, msg string) {
	x.popped.Add(-1)
	// The state re-enters the frontier: re-increment inflight to cancel
	// the decrement runWorker applies after execute returns.
	x.inflight.Add(1)
	w.dq.pushTail(st)
	x.queued.Add(1)
	x.halt(&Result{Verdict: Undecided, Message: msg})
}

// halt records a run-terminating result and stops every worker. When
// results race, the one that outranks the other wins and the first of
// equal rank stands (Verdict.Outranks): an Error displaces a budget
// stop because the state that decided was popped and counted, so a
// resumed run would never reach it again.
func (x *exploration) halt(res *Result) {
	x.resMu.Lock()
	if x.hard == nil || res.Verdict.Outranks(x.hard.Verdict) {
		x.hard = res
	}
	x.resMu.Unlock()
	x.stopAll()
}

// maybeSnapshot takes a periodic checkpoint when the interval has
// elapsed. One worker wins the snapping claim, quiesces the others by
// taking the snapshot gate for writing (every worker is then between
// items: all unprocessed states sit in deques), copies
// the frontier and counters under the gate, and hands the
// checkpoint to the sink after releasing it — graphs are logically
// immutable once published, so encoding them outside the quiesce
// window races with nothing.
func (x *exploration) maybeSnapshot() {
	if time.Now().UnixNano()-x.lastSnap.Load() < x.snapEvery {
		return
	}
	if !x.snapping.CompareAndSwap(false, true) {
		return
	}
	defer x.snapping.Store(false)
	if time.Now().UnixNano()-x.lastSnap.Load() < x.snapEvery || x.done.Load() {
		return
	}
	x.snapGate.Lock()
	var ck *Checkpoint
	if !x.done.Load() {
		ck = x.buildCheckpoint()
	}
	x.snapGate.Unlock()
	x.lastSnap.Store(time.Now().UnixNano())
	if ck != nil {
		_ = x.c.CheckpointSink(ck) // best-effort: the sink reports its own errors
	}
}

// buildCheckpoint captures the current frontier, visited keys, and
// counters. The caller must have quiesced the workers — either by
// holding the snapshot gate for writing, or because the run has
// drained and every worker exited.
//
// The frontier is each deque in turn, oldest→newest: seedResume
// pushes it back in that order, so a one-worker run's deque is rebuilt
// cell for cell, at any length, and its pops go on in the interrupted
// run's exact order. (A parallel run's deques land end to end in worker
// 0's; its verdict does not depend on pop order.)
func (x *exploration) buildCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		Model:  x.c.Model.Name(),
		Prog:   x.prog.Fingerprint128(),
		Sym:    x.sym != nil,
		Popped: x.basePopped + x.popped.Load(),
		Stats:  x.baseStats,
		rerun:  x.rerun,
	}
	for _, w := range x.workers {
		ck.Stats.Add(w.stats)
		ck.frontier = w.dq.snapshot(ck.frontier)
	}
	// The run may go on while the checkpoint is encoded: what it captured
	// is never recycled.
	for i, st := range ck.frontier {
		ck.frontier[i] = stripSnap(st)
		st.g.Pin()
	}
	if x.visited != nil {
		ck.visited = x.visited.Snapshot(make([]graph.Hash128, 0, x.visited.Len()))
	}
	return ck
}

// stripSnap drops the replay results from the copy of a state bound for
// a checkpoint, as encoding it would: a state resumed from memory then
// replays every thread, like one decoded from a file.
func stripSnap(st ExploreState) ExploreState {
	st.snap = nil
	st.changed = 0
	return st
}

// merge assembles the final Result: the result that halted the run
// (see halt for which one that is), or OK when the frontier drained —
// with statistics summed over every worker that participated.
func (x *exploration) merge() *Result {
	res := x.hard
	if res == nil {
		res = &Result{Verdict: OK}
	}
	res.Stats.Add(x.baseStats)
	sched := SchedStats{Workers: len(x.workers), Executed: make([]int, len(x.workers))}
	for i, w := range x.workers {
		res.Stats.Add(w.stats)
		res.Mem.Add(w.mem.Counters())
		res.Sig.Add(w.symSc.Sigs)
		sched.Executed[i] = w.executed
		if w.executed > 0 {
			sched.Active++
		}
		sched.Steals += w.steals
		sched.Stolen += w.stolen
		sched.FrontierPeak += w.dq.peak
		sched.MemoRows += len(w.memo.rows)
		sched.MemoReplays += w.memo.replays
	}
	if x.visited != nil {
		sched.Contention = x.visited.Contention()
	}
	res.Sched = sched
	return res
}
