package core

import (
	"unsafe"

	"repro/internal/graph"
)

// replayMemo is one worker's replay cache for one run. A replay reads
// nothing of the graph but its own thread's row (§2.1.2: the
// graph-driven semantics), and rows recur all the time — treiber t=3
// replays about ten times per distinct row — so each distinct row is
// replayed once per worker and every later replay of it is a lookup.
//
// An entry is a deep copy of a replayResult: its spans and reads are
// the memo's own, carved out of arenas, and nothing writes them after
// insertion. That is what lets a step's children share the step's
// entries (ExploreState.snap) with no reference counting and lets a
// thief read them: the garbage collector reclaims them with the run.
// Results that carry an error are not kept; they end the run.
type replayMemo struct {
	rows    map[graph.Hash128]*replayResult
	replays int // lookups, hits and misses alike

	ents  []replayResult
	spans []iterRec
	reads []graph.EventID
}

// rowKey is the memo key of thread t of g: a 128-bit hash of t and,
// per event of its row, exactly what replayThread reads — kind, mode,
// location, the degraded flag and whether the read's rf is ⊥, the
// written value and the read value. The contract: two rows with equal
// keys replay to equal results, so a field replayThread starts reading
// must be hashed here.
func rowKey(g *graph.Graph, t int) graph.Hash128 {
	row := g.Threads[t]
	h := graph.NewHasher128()
	h.Word(uint64(t)<<32 | uint64(len(row)))
	for _, e := range row {
		w := uint64(e.Kind) | uint64(e.Mode)<<8 | uint64(uint32(e.Loc))<<32
		if e.Degraded {
			w |= 1 << 16
		}
		if e.IsReadLike() && g.RfOf(e.ID).Bottom {
			w |= 1 << 17
		}
		h.Word(w)
		h.Word(e.Val)
		h.Word(e.RVal)
	}
	return h.Sum()
}

// replay returns thread t's replay result against g, from the memo when
// this worker replayed an equal row before. The result is an entry:
// read it, never write it.
func (w *explorer) replay(g *graph.Graph, t int) *replayResult {
	m := &w.memo
	if m.rows == nil {
		m.rows = make(map[graph.Hash128]*replayResult)
	}
	m.replays++
	k := rowKey(g, t)
	if e := m.rows[k]; e != nil {
		if auditMemo != nil {
			auditMemo(w, g, t, e)
		}
		return e
	}
	res := replayThread(g, t, w.threads[t], w.vars.Vars, &w.rmem)
	if res.err != nil {
		return &replayResult{err: res.err}
	}
	e := m.keep(&res)
	m.rows[k] = e
	return e
}

// auditMemo, when set, sees every memo hit before it is served.
// Test-only: see AuditReplayMemo in export_test.go.
var auditMemo func(w *explorer, g *graph.Graph, t int, e *replayResult)

// keep copies r, which points into the worker's replay scratch, into an
// entry the memo owns.
func (m *replayMemo) keep(r *replayResult) *replayResult {
	e := &carve(&m.ents, unsafe.Slice(r, 1))[0]
	e.spans = carve(&m.spans, r.spans)
	for k := range e.spans {
		e.spans[k].Reads = carve(&m.reads, e.spans[k].Reads)
	}
	return e
}

// arenaChunk caps the size an arena grows to per allocation: a short run
// allocates little, a long one one object per this many items.
const arenaChunk = 256

// carve appends src to the arena *buf and returns the copy, capped so an
// append to it cannot reach the next carving; a fresh chunk replaces a
// full one, which stays alive while something points into it. Empty src
// gives nil.
func carve[T any](buf *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(*buf)-len(*buf) < len(src) {
		*buf = make([]T, 0, max(len(src), min(2*cap(*buf), arenaChunk), 8))
	}
	lo := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[lo:len(*buf):len(*buf)]
}
