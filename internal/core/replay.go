// Package core implements Await Model Checking (AMC), the paper's core
// contribution (§1): a stateless model checker for concurrent programs
// with await loops on weak memory models.
//
// AMC explores execution graphs depth-first over a work-graph of
// partial-graph states (Fig. 6): each worker executes its own frontier
// deque LIFO and steals FIFO from the others when WorkersPerRun > 1
// (see workgraph.go; one worker recovers the classic stack machine).
// Reads branch over every write they could read from — plus, inside
// await loops, a ⊥ (missing rf) branch that tracks potential
// await-termination violations. Writes branch over modification-order
// placements and additionally *revisit* existing reads, transplanting
// them onto the new write. Two filters make the search finite and sound
// for awaiting programs:
//
//   - wasteful executions (Def. 2) — an await whose reads observe the
//     same writes in two consecutive iterations, whether the iteration
//     is a single polling load (AwaitWhile) or a multi-operation CAS
//     retry (AwaitDo) — are pruned, collapsing the infinite set GF into
//     the finite GF*;
//   - graphs in which a ⊥ read can no longer be resolved by any
//     non-wasteful consistent write witness an await-termination
//     violation (the finite representatives G∞* of the infinite
//     executions in G∞ — for a CAS loop this is the "no remaining
//     write to observe" verdict that replaces any artificial retry
//     bound).
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/vprog"
)

// opKind classifies the pending (next) operation of a thread.
type opKind uint8

const (
	opNone opKind = iota // no pending operation: the thread finished or is blocked
	opRead
	opWrite
	opUpdate
	opFence
	opError
)

// upKind classifies the update operation of an opUpdate pending.
type upKind uint8

const (
	upNone upKind = iota
	upXchg
	upCAS
	upFAA
)

// pending describes the next shared-memory operation a thread wants to
// perform, discovered by replaying the thread against the graph. It is
// a plain value (update semantics are carried as operands, not a
// closure) so the replay loop can build one per instruction on the
// stack; the op a thread actually stops on is copied into its
// replayResult.
type pending struct {
	kind opKind
	loc  graph.Loc
	mode graph.Mode
	val  graph.Val // value to write (opWrite)
	msg  string    // assertion message (opError)

	inAwait   bool
	awaitSeq  int
	awaitIter int

	// up/a/b encode the update semantics of an opUpdate: Xchg writes a,
	// CmpXchg compares against a and writes b, FetchAdd adds a.
	up   upKind
	a, b graph.Val
}

// compute derives the written value of an update from the value read;
// degraded reports that the update behaves as a plain read (failed
// CAS, or a write of the very value read — footnote 5 of the paper:
// only value-changing writes matter).
func (p *pending) compute(read graph.Val) (write graph.Val, degraded bool) {
	switch p.up {
	case upXchg:
		return p.a, p.a == read
	case upCAS:
		if read != p.a {
			return 0, true // failed CAS: a plain read
		}
		return p.b, p.b == read
	case upFAA:
		return read + p.a, p.a == 0
	}
	panic("core: compute on a non-update pending")
}

// iterRec records one await iteration observed during replay.
type iterRec struct {
	Seq      int
	Iter     int
	Reads    []graph.EventID // read-like events of the iteration, po order (a window of replayMem.reads)
	Failed   bool            // condition evaluated to true (loop repeats)
	Complete bool            // the condition finished evaluating
	Wrote    bool            // iteration performed a store or value-changing update
}

// replayResult is the outcome of replaying one thread against a graph.
type replayResult struct {
	pending  pending   // next operation, kind opNone if none (finished or blocked)
	finished bool      // thread ran to completion
	blocked  bool      // thread is stuck on a ⊥ read
	spans    []iterRec // await iterations observed
	err      error     // internal error (determinism violation etc.)
}

// abortReplay is the panic sentinel that unwinds a thread function once
// the replay has learned what it needed.
type abortReplay struct{}

// maxLocalIters bounds await iterations that consume no shared events,
// which would otherwise loop forever during replay.
const maxLocalIters = 4096

// replayMem implements vprog.Mem by feeding a thread the values
// recorded in an execution graph (§2.1.2: the graph-driven semantics).
type replayMem struct {
	g    *graph.Graph
	tid  int
	idx  int // next event index of this thread to consume
	vars []*vprog.Var

	awaitDepth int
	awaitSeq   int // number of await instances started so far
	curSeq     int // active await instance, -1 outside
	curIter    int
	inDo       bool   // the active await is an AwaitDo (retry) instance
	effMsg     string // first Bounded-Effect violation candidate of the current iteration

	// reads is the arena every iterRec.Reads of this replay is a window
	// of: one buffer per replay, recycled like the spans, instead of one
	// append chain per await iteration. A window taken before the arena
	// grew keeps pointing at the old array, whose prefix never changes.
	reads []graph.EventID

	res replayResult
}

func (m *replayMem) events() []*graph.Event { return m.g.Threads[m.tid] }

// stop records the pending operation, tagged with the await it sits in,
// and unwinds the replay.
func (m *replayMem) stop(p pending) {
	p.inAwait = m.curSeq >= 0
	p.awaitSeq = m.curSeq
	p.awaitIter = m.curIter
	m.res.pending = p
	panic(abortReplay{})
}

// fail records an internal error and unwinds.
func (m *replayMem) fail(format string, args ...any) {
	m.res.err = fmt.Errorf("thread T%d, event %d: "+format,
		append([]any{m.tid, m.idx}, args...)...)
	panic(abortReplay{})
}

// next consumes the next graph event, checking that it matches what the
// program generated (the consP consistency of §2.1.2); if the graph has
// no more events for this thread, it records p as the pending op and
// unwinds. p travels by value all the way into the replayResult —
// replays run once per thread per popped graph and must not allocate.
func (m *replayMem) next(kind graph.Kind, loc graph.Loc, mode graph.Mode, p pending) *graph.Event {
	evs := m.events()
	if m.idx >= len(evs) {
		m.stop(p)
	}
	e := evs[m.idx]
	if e.Kind != kind || (kind != graph.KFence && e.Loc != loc) || e.Mode != mode {
		m.fail("program generated %s(loc%d,%s) but graph holds %s", kind, loc, mode, e)
	}
	m.idx++
	return e
}

// readVal extracts the value a read-like event observes, blocking the
// replay if its rf edge is ⊥.
func (m *replayMem) readVal(e *graph.Event) graph.Val {
	if m.g.RfOf(e.ID).Bottom {
		m.idx-- // the blocked event stays "current"
		m.res.blocked = true
		panic(abortReplay{})
	}
	return e.RVal
}

// markWrote flags the current await iteration as having performed a
// store or a value-changing update. The retry-free-twin collapse
// (explore.collapsedRetry) consults the flag: only awaits whose failed
// iterations left no write behind may be collapsed onto the encoding
// that never retried.
func (m *replayMem) markWrote() {
	if m.curSeq < 0 {
		return
	}
	n := len(m.res.spans)
	if n > 0 && m.res.spans[n-1].Seq == m.curSeq && m.res.spans[n-1].Iter == m.curIter {
		m.res.spans[n-1].Wrote = true
	}
}

// recordRead appends the event to the current await iteration record.
func (m *replayMem) recordRead(e *graph.Event) {
	if m.curSeq < 0 {
		return
	}
	n := len(m.res.spans)
	if n > 0 && m.res.spans[n-1].Seq == m.curSeq && m.res.spans[n-1].Iter == m.curIter {
		// The current iteration's reads are the tail of the arena.
		sp := &m.res.spans[n-1]
		m.reads = append(m.reads, e.ID)
		sp.Reads = m.reads[len(m.reads)-len(sp.Reads)-1:]
	}
}

func (m *replayMem) Load(v *vprog.Var, mode vprog.Mode) uint64 {
	e := m.next(graph.KRead, graph.Loc(v.ID), mode, pending{kind: opRead, loc: graph.Loc(v.ID), mode: mode})
	m.recordRead(e)
	return m.readVal(e)
}

func (m *replayMem) Store(v *vprog.Var, x uint64, mode vprog.Mode) {
	e := m.next(graph.KWrite, graph.Loc(v.ID), mode,
		pending{kind: opWrite, loc: graph.Loc(v.ID), mode: mode, val: x})
	if e.Val != x {
		m.fail("program stores %d but graph holds %s", x, e)
	}
	m.markWrote()
	// Bounded-Effect candidates: the verdict on whether the enclosing
	// iteration failed is deferred to the await loop — a store in a
	// *succeeding* iteration is always fine.
	if m.curSeq >= 0 && m.effMsg == "" {
		if !m.inDo {
			m.effMsg = fmt.Sprintf("plain store to %s", v.Name)
		} else if v.SymOwner != m.tid+1 {
			m.effMsg = fmt.Sprintf("store to %s, which thread T%d does not own", v.Name, m.tid)
		}
	}
}

// update is the common path of Xchg/CmpXchg/FetchAdd.
func (m *replayMem) update(v *vprog.Var, mode vprog.Mode, up upKind, a, b graph.Val) graph.Val {
	p := pending{kind: opUpdate, loc: graph.Loc(v.ID), mode: mode, up: up, a: a, b: b}
	e := m.next(graph.KUpdate, graph.Loc(v.ID), mode, p)
	m.recordRead(e)
	rv := m.readVal(e)
	wv, degr := p.compute(rv)
	if degr != e.Degraded || (!degr && wv != e.Val) {
		m.fail("update recomputation mismatch: read %d gives (%d,%t) but graph holds %s", rv, wv, degr, e)
	}
	if !degr {
		m.markWrote()
	}
	// An AwaitWhile body must be read-only: a degraded update is a read
	// (footnote 5), a value-changing one is a Bounded-Effect candidate.
	// AwaitDo iterations may update freely — see the vprog package doc.
	if m.curSeq >= 0 && !m.inDo && !degr && m.effMsg == "" {
		m.effMsg = fmt.Sprintf("value-changing update of %s", v.Name)
	}
	return rv
}

func (m *replayMem) Xchg(v *vprog.Var, x uint64, mode vprog.Mode) uint64 {
	return m.update(v, mode, upXchg, x, 0)
}

func (m *replayMem) CmpXchg(v *vprog.Var, old, new uint64, mode vprog.Mode) (uint64, bool) {
	r := m.update(v, mode, upCAS, old, new)
	return r, r == old
}

func (m *replayMem) FetchAdd(v *vprog.Var, delta uint64, mode vprog.Mode) uint64 {
	return m.update(v, mode, upFAA, delta, 0)
}

func (m *replayMem) Fence(mode vprog.Mode) {
	if mode == vprog.ModeNone {
		return // eliminated fence
	}
	m.next(graph.KFence, 0, mode, pending{kind: opFence, mode: mode})
}

func (m *replayMem) AwaitWhile(cond func() bool) {
	m.await(false, func() bool { return !cond() })
}

func (m *replayMem) AwaitDo(body func() bool) {
	m.await(true, body)
}

// await runs one await instance; done reports whether the iteration
// succeeded (the loop exits). Both constructs share the span discipline
// — one iterRec per evaluation, Failed when the loop repeats — and
// differ only in the Bounded-Effect contract enforced on completed
// failed iterations (see Store and update above, which record the
// candidates this loop judges).
func (m *replayMem) await(isDo bool, done func() bool) {
	if m.awaitDepth > 0 {
		m.fail("nested awaits are not allowed (paper §2.1.1 syntactic restriction)")
	}
	m.awaitDepth++
	defer func() { m.awaitDepth-- }()
	seq := m.awaitSeq
	m.awaitSeq++
	m.inDo = isDo
	local := 0
	for iter := 0; ; iter++ {
		m.curSeq, m.curIter = seq, iter
		m.effMsg = ""
		m.res.spans = append(m.res.spans, iterRec{Seq: seq, Iter: iter})
		before := m.idx
		ok := done()
		rec := &m.res.spans[len(m.res.spans)-1]
		rec.Complete = true
		rec.Failed = !ok
		m.curSeq, m.curIter = -1, 0
		if !ok && m.effMsg != "" {
			kind := "AwaitWhile"
			if isDo {
				kind = "AwaitDo"
			}
			m.fail("Bounded-Effect violation: %s in failed iteration %d of an %s", m.effMsg, iter, kind)
		}
		if ok {
			return
		}
		if m.idx == before {
			local++
			if local > maxLocalIters {
				m.fail("await loop performs no shared-memory reads (violates await progress)")
			}
		} else {
			local = 0
		}
	}
}

func (m *replayMem) Pause()   {}
func (m *replayMem) TID() int { return m.tid }

func (m *replayMem) Assert(ok bool, msg string) {
	if ok {
		return
	}
	evs := m.events()
	if m.idx >= len(evs) {
		m.stop(pending{kind: opError, msg: msg})
	}
	e := evs[m.idx]
	if e.Kind != graph.KError {
		m.fail("program raises assertion %q but graph holds %s", msg, e)
	}
	m.idx++
}

// replayThread runs fn against g, reporting the thread's next pending
// operation (or completion/blockage) and its await iteration records.
// m is caller-provided scratch (one per worker, reused across replays so
// they stop allocating); its previous spans and reads backing arrays are
// recycled, which is safe because the caller copies each result out (the
// replay memo's keep) before the next replay.
func replayThread(g *graph.Graph, tid int, fn vprog.ThreadFunc, vars []*vprog.Var, m *replayMem) (res replayResult) {
	spans, reads := m.res.spans[:0], m.reads[:0]
	*m = replayMem{g: g, tid: tid, vars: vars, curSeq: -1, reads: reads}
	m.res.spans = spans
	done := func() bool {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortReplay); !ok {
					panic(r)
				}
			}
		}()
		fn(m)
		return true
	}()
	res = m.res
	if done {
		if m.idx != len(m.events()) {
			res.err = fmt.Errorf("thread T%d finished with %d unconsumed graph events",
				tid, len(m.events())-m.idx)
			return
		}
		res.finished = true
	}
	return
}
