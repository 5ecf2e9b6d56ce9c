package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// RF records the reads-from choice of a read-like event. Bottom
// represents the paper's missing rf-edge (⊥ --rf--> r), the marker AMC
// uses to track potential await-termination violations.
type RF struct {
	W      EventID
	Bottom bool
}

// BottomRF is the missing-rf choice.
var BottomRF = RF{Bottom: true}

// FromW wraps a write id as an RF choice.
func FromW(w EventID) RF { return RF{W: w} }

// noRF is the sentinel filling the rf slots of non-read-like events
// (and of read-like events between Append and SetRF). It never equals
// a real choice: NoEvent identifies no event and Bottom is false.
var noRF = RF{W: NoEvent}

// rfCell is an RF as the rf rows store it, a third of the size: the
// source's thread and index as int32, with ⊥ a sentinel thread of its
// own. Init writes (thread -1) and noRF (NoEvent: thread -2) need none.
// Rows are copied once per appended event and sit in every queued state,
// which is why they are not []RF; nothing outside cellOf and rf knows the
// layout.
type rfCell struct{ thread, index int32 }

const bottomThread = -3

// fitsCell reports whether id can be the source in an rf cell: an init
// write or an event of a thread, inside int32.
func fitsCell(id EventID) bool {
	return id.Thread >= InitThread && id.Thread <= math.MaxInt32 && id.Index >= 0 && id.Index <= math.MaxInt32
}

// cellOf packs rf. A source that does not fit is refused loudly: a cell
// that wrapped around would name some other event.
func cellOf(rf RF) rfCell {
	if rf.Bottom {
		return rfCell{thread: bottomThread}
	}
	if rf.W != NoEvent && !fitsCell(rf.W) {
		panic(fmt.Sprintf("graph: rf source %v does not fit an rf cell", rf.W))
	}
	return rfCell{int32(rf.W.Thread), int32(rf.W.Index)}
}

// rf unpacks the cell.
func (c rfCell) rf() RF {
	if c.thread == bottomThread {
		return BottomRF
	}
	return RF{W: EventID{Thread: int(c.thread), Index: int(c.index)}}
}

// Graph is an execution graph under construction or completed. Graphs
// are value-ish: Clone produces an independent graph sharing immutable
// Event nodes. The zero Graph is not usable; call New.
type Graph struct {
	// Threads holds each thread's events in program order.
	Threads [][]*Event
	// InitVals holds the initial value of each allocated location; the
	// init write for location l is implicit with id {InitThread, l}.
	InitVals []Val
	// LocNames holds rendering names for locations.
	LocNames []string

	// rf holds, per thread, the reads-from choice of each event (packed:
	// see rfCell; read through rfAt), indexed in parallel with Threads.
	// Entries of read-like events are set via SetRF (possibly Bottom); all
	// other entries hold the noRF sentinel. Stored as slices rather than the historical
	// map[EventID]RF because exploration clones once per branch and
	// looks an rf up once per read per replay: rows follow the same
	// capacity-clamped copy-on-write discipline as Threads, making a
	// clone O(threads) slice headers and a lookup two array indexes.
	rf [][]rfCell
	// rfOwned tracks (bit per thread, threads ≥ 64 always unowned)
	// which rf rows are backed by arrays private to this graph: Append
	// always privatizes a row (clamped capacities force reallocation),
	// and SetRF copies-on-write before mutating a shared one.
	rfOwned uint64

	// Mo holds, per location, the modification order of write-like
	// events. Index 0 is always the implicit init write.
	Mo [][]EventID

	// NextStamp is the next addition timestamp.
	NextStamp int

	// initEvs holds the synthesized init write events (stamp 0, one per
	// location), built once in New and shared by all clones.
	initEvs []*Event

	// rels memoizes the derived relations of the current graph state
	// (see RelsOf); every mutation invalidates it. extParent/extEvent
	// record that this graph was derived from extParent by appending
	// exactly extEvent (extKind == extAppend, plus its rf/mo
	// bookkeeping), by resolving the formerly-⊥ trailing read extEvent
	// (extResolve), or by cutting it down to thread prefixes and then
	// appending extEvent (extRestrict), which lets RelsOf derive the
	// relations incrementally from the parent instead of rebuilding from
	// scratch.
	rels      *Rels
	extParent *Graph
	extEvent  *Event
	extKind   uint8

	// sig keeps each grouped thread's symmetry signature state (the hash
	// before its Sum) for one-event children (see SymSpec.signatures). It
	// is valid while its length is the thread count: every mutation and
	// every reuse of the header empties it.
	sig []Hasher128

	// refs counts who still needs this graph and its relations, fl is the
	// list its clones and relations are taken from, and moved records
	// that another worker's list was here first (see FreeList).
	refs  atomic.Int32
	fl    *FreeList
	moved bool
}

// Extension-hint kinds (see RelsOf).
const (
	extNone uint8 = iota
	extAppend
	extResolve
	extRestrict
)

// invalidate drops the memoized relations and the extension hint; every
// mutating method calls it, so a stale hint can never describe a graph
// that was mutated after NoteExtended. Both go to the garbage collector:
// the explorer mutates a graph only before it notes the hint.
func (g *Graph) invalidate() {
	g.rels = nil
	g.sig = g.sig[:0]
	g.extParent, g.extEvent = nil, nil
	g.extKind = extNone
}

// NoteExtended records that g was derived from parent by appending
// exactly event e (with its rf choice and mo insertion already
// applied). RelsOf uses the hint to extend parent's relations with one
// row/column instead of re-deriving everything. Call it after the last
// mutation; any further mutation clears the hint. The hint holds a
// reference to parent until RelsOf or FreeList.Release consumes it.
func (g *Graph) NoteExtended(parent *Graph, e *Event) { g.note(parent, e, extAppend) }

// NoteResolved records that g was derived from parent by resolving the
// formerly-⊥ read e (the last event of its thread, replaced and given
// a real rf source; updates resolved read-only). RelsOf uses the hint
// to patch the parent's relations with e's new edges instead of
// rebuilding — the hot path of the await-termination resolvability
// scan, which tries one such resolution per candidate write.
func (g *Graph) NoteResolved(parent *Graph, e *Event) { g.note(parent, e, extResolve) }

// NoteRestricted records that g is a write→read revisit of parent: the
// write-like event e appended, then everything outside a po- and
// rf-closed keep-set that holds e removed. Only the hint is stored — the
// lengths of g's thread rows are the keep-set — and RelsOf selects rows
// and columns of parent's relations instead of rebuilding (Rels.Restrict:
// parent must satisfy atomicity, and the explorer revisits only from
// graphs its model found consistent). Call it after RestrictTo.
func (g *Graph) NoteRestricted(parent *Graph, e *Event) { g.note(parent, e, extRestrict) }

func (g *Graph) note(parent *Graph, e *Event, kind uint8) {
	parent.refs.Add(1)
	g.extParent, g.extEvent, g.extKind = parent, e, kind
}

// New returns an empty graph for nthreads threads and the given
// locations (initial values and names, parallel slices).
func New(nthreads int, initVals []Val, locNames []string) *Graph {
	g := &Graph{
		Threads:   make([][]*Event, nthreads),
		InitVals:  append([]Val(nil), initVals...),
		LocNames:  append([]string(nil), locNames...),
		rf:        make([][]rfCell, nthreads),
		Mo:        make([][]EventID, len(initVals)),
		NextStamp: 1,
	}
	g.refs.Store(1)
	g.initEvs = make([]*Event, len(initVals))
	for l := range g.Mo {
		g.Mo[l] = []EventID{{Thread: InitThread, Index: l}}
		g.initEvs[l] = &Event{
			ID:       EventID{Thread: InitThread, Index: l},
			Kind:     KWrite,
			Mode:     Rlx,
			Loc:      Loc(l),
			Val:      initVals[l],
			AwaitSeq: -1,
		}
	}
	return g
}

// Clone returns an independent copy of g. Event nodes are shared (they
// are immutable once added), and so are the per-thread event slices and
// per-location mo orders: the clone holds capacity-clamped views
// (s[:len:len]) of the parent's backing arrays, so any append on either
// side reallocates instead of writing into shared memory. The only
// in-place mutations of slice prefixes go through InsertMo,
// ReplaceEvent and RestrictTo, which always build fresh slices. This
// makes Clone O(threads + locations) instead of O(events), which
// matters because exploration clones once per branch. The header and
// its three outer arrays come from g's free list.
func (g *Graph) Clone() *Graph {
	ng := g.fl.graph(len(g.Threads), len(g.Mo))
	ng.InitVals, ng.LocNames, ng.initEvs = g.InitVals, g.LocNames, g.initEvs
	ng.NextStamp = g.NextStamp
	for t, evs := range g.Threads {
		ng.Threads[t] = evs[:len(evs):len(evs)]
	}
	for t, row := range g.rf {
		ng.rf[t] = row[:len(row):len(row)]
	}
	// Both sides now alias every rf row: the clone starts unowned (zero
	// value), and the parent's claims are void too — an in-place SetRF
	// on either would leak into the other.
	g.rfOwned = 0
	for l, order := range g.Mo {
		ng.Mo[l] = order[:len(order):len(order)]
	}
	return ng
}

// NumEvents returns the number of explicit (non-init) events.
func (g *Graph) NumEvents() int {
	n := 0
	for _, evs := range g.Threads {
		n += len(evs)
	}
	return n
}

// Event returns the event with the given id, or nil if absent. Init ids
// return the graph's synthesized init write event (shared across clones
// — init events are immutable like all others).
func (g *Graph) Event(id EventID) *Event {
	if id.IsInit() {
		if id.Index < 0 || id.Index >= len(g.InitVals) {
			return nil
		}
		return g.initEvs[id.Index]
	}
	if id.Thread < 0 || id.Thread >= len(g.Threads) {
		return nil
	}
	evs := g.Threads[id.Thread]
	if id.Index < 0 || id.Index >= len(evs) {
		return nil
	}
	return evs[id.Index]
}

// Has reports whether id denotes an event present in the graph.
func (g *Graph) Has(id EventID) bool {
	if id.IsInit() {
		return id.Index >= 0 && id.Index < len(g.InitVals)
	}
	return id.Thread >= 0 && id.Thread < len(g.Threads) && id.Index >= 0 && id.Index < len(g.Threads[id.Thread])
}

// WriteVal returns the value written by the write-like event id.
func (g *Graph) WriteVal(id EventID) Val {
	e := g.Event(id)
	if e == nil {
		panic(fmt.Sprintf("graph: WriteVal of missing event %v", id))
	}
	return e.Val
}

// Append adds e as the next event of its thread, assigning its stamp.
// The caller must have set e.ID to {thread, len(Threads[thread])}.
func (g *Graph) Append(e *Event) {
	t := e.ID.Thread
	if e.ID.Index != len(g.Threads[t]) {
		panic(fmt.Sprintf("graph: append out of order: %v at len %d", e.ID, len(g.Threads[t])))
	}
	e.Stamp = g.NextStamp
	g.NextStamp++
	// A full row reallocates on append (clones clamp capacities), which
	// privatizes it: the graph may then SetRF in place. An append into
	// existing slack leaves the shared prefix aliased, so the ownership
	// state must not change.
	if cap(g.rf[t]) == len(g.rf[t]) && t < 64 {
		g.rfOwned |= 1 << uint(t)
	}
	g.Threads[t] = appendExact(g.Threads[t], e)
	g.rf[t] = appendExact(g.rf[t], cellOf(noRF))
	g.invalidate()
}

// appendExact is append that grows a full slice by exactly one element:
// the explorer appends to a row once and clones, Clone clamps the row's
// capacity again, and geometric slack would only ever be copied.
func appendExact[T any](s []T, v T) []T {
	if len(s) < cap(s) {
		return append(s, v)
	}
	ns := make([]T, len(s)+1)
	copy(ns, s)
	ns[len(s)] = v
	return ns
}

// RfOf returns the reads-from choice of the read-like event r. It is
// only meaningful for read-like events present in the graph (every one
// has a choice set the moment it is added; asking for anything else
// returns the internal "no entry" sentinel).
func (g *Graph) RfOf(r EventID) RF { return g.rfAt(r.Thread, r.Index) }

// rfAt is RfOf by thread and index.
func (g *Graph) rfAt(t, i int) RF { return g.rf[t][i].rf() }

// SetRF records the reads-from choice for a read-like event. The row
// is copied first unless this graph already owns its backing array
// (clones share rows, and a revisit resolution rewrites the rf of an
// existing event — that write must not leak into siblings).
func (g *Graph) SetRF(r EventID, rf RF) {
	t := r.Thread
	if t >= 64 || g.rfOwned&(1<<uint(t)) == 0 {
		row := make([]rfCell, len(g.rf[t]))
		copy(row, g.rf[t])
		g.rf[t] = row
		if t < 64 {
			g.rfOwned |= 1 << uint(t)
		}
	}
	g.rf[t][r.Index] = cellOf(rf)
	g.invalidate()
}

// ReplaceEvent swaps the event at id for e. It always copies the
// thread's event slice first: clones share slice backing arrays
// (see Clone), so an in-place element write would leak into siblings.
func (g *Graph) ReplaceEvent(id EventID, e *Event) {
	evs := g.Threads[id.Thread]
	nevs := make([]*Event, len(evs))
	copy(nevs, evs)
	nevs[id.Index] = e
	g.Threads[id.Thread] = nevs
	g.invalidate()
}

// InsertMo inserts the write-like event id into the modification order
// of loc at position pos (1 <= pos <= len, position 0 is the init write).
// It builds a fresh order slice: clones share mo backing arrays (see
// Clone), so the shift must not happen in place.
func (g *Graph) InsertMo(loc Loc, id EventID, pos int) {
	order := g.Mo[loc]
	if pos < 1 || pos > len(order) {
		panic(fmt.Sprintf("graph: mo position %d out of range [1,%d]", pos, len(order)))
	}
	norder := make([]EventID, len(order)+1)
	copy(norder, order[:pos])
	norder[pos] = id
	copy(norder[pos+1:], order[pos:])
	g.Mo[loc] = norder
	g.invalidate()
}

// MoIndex returns the position of id in the modification order of loc,
// or -1 if absent.
func (g *Graph) MoIndex(loc Loc, id EventID) int {
	for i, w := range g.Mo[loc] {
		if w == id {
			return i
		}
	}
	return -1
}

// MoMax returns the mo-maximal write to loc.
func (g *Graph) MoMax(loc Loc) EventID {
	order := g.Mo[loc]
	return order[len(order)-1]
}

// FinalVal returns the final (mo-maximal) value of loc.
func (g *Graph) FinalVal(loc Loc) Val { return g.WriteVal(g.MoMax(loc)) }

// BottomReads returns the read-like events whose rf choice is Bottom.
func (g *Graph) BottomReads() []EventID {
	var out []EventID
	for t, evs := range g.Threads {
		for i, e := range evs {
			if e.IsReadLike() && g.rfAt(t, i).Bottom {
				out = append(out, e.ID)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thread != out[j].Thread {
			return out[i].Thread < out[j].Thread
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// porfStackPool recycles the DFS stacks of PorfPrefix.
var porfStackPool = sync.Pool{New: func() any { return new([]*Event) }}

// PorfPrefix returns the set of events that are (po ∪ rf)-ancestors
// of the events in seeds, including the seeds themselves. Init events
// are not included. The result is a stamp-indexed bitset (one word per
// 64 events) rather than a map, and it is pool-backed: revisit
// generation builds one of these per fresh write on the exploration
// hot path, and may Release it when done (callers that don't simply
// leave it to the garbage collector).
func (g *Graph) PorfPrefix(seeds ...EventID) *EventSet {
	seen := NewEventSetPooled(g.NextStamp)
	sp := porfStackPool.Get().(*[]*Event)
	stack := (*sp)[:0]
	push := func(id EventID) {
		if id.IsInit() {
			return
		}
		e := g.Event(id)
		if e == nil || seen.Has(e) {
			return
		}
		seen.Add(e)
		stack = append(stack, e)
	}
	for _, s := range seeds {
		push(s)
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// po predecessors: it suffices to push the immediate one.
		if e.ID.Index > 0 {
			push(EventID{Thread: e.ID.Thread, Index: e.ID.Index - 1})
		}
		// rf source, if a read-like event.
		if e.IsReadLike() {
			if rf := g.RfOf(e.ID); !rf.Bottom {
				push(rf.W)
			}
		}
	}
	*sp = stack[:0]
	porfStackPool.Put(sp)
	return seen
}

// RestrictTo removes every explicit event not in keep, preserving
// per-thread po prefixes. keep must be po-prefix-closed per thread (the
// caller guarantees this; RestrictTo panics otherwise) and rf-closed
// except for reads that are themselves dropped. The truncated thread
// slices are capacity-clamped, and so is an mo order that only loses a
// suffix (most lose nothing); one that loses a write from its middle is
// rebuilt fresh. The restriction never writes into arrays shared with
// clones.
func (g *Graph) RestrictTo(keep *EventSet) {
	// Filter mo first: the stamp lookup needs the events still present.
	for l, order := range g.Mo {
		kept := 1 // the init write stays
		var dst []EventID
		for i := 1; i < len(order); i++ {
			if !keep.Has(g.Event(order[i])) {
				continue
			}
			switch {
			case dst != nil:
				dst = append(dst, order[i])
			case kept == i:
				kept++
			default:
				dst = make([]EventID, kept, len(order)-1)
				copy(dst, order[:kept])
				dst = append(dst, order[i])
			}
		}
		if dst == nil {
			dst = order[:kept:kept]
		}
		g.Mo[l] = dst
	}
	for t, evs := range g.Threads {
		cut := len(evs)
		for i, e := range evs {
			if !keep.Has(e) {
				cut = i
				break
			}
		}
		for i := cut; i < len(evs); i++ {
			if keep.Has(evs[i]) {
				panic("graph: RestrictTo keep-set not po-prefix-closed")
			}
		}
		g.Threads[t] = evs[:cut:cut]
		// The dropped events' rf entries go with them; the kept prefix
		// stays aliased, so ownership claims do not change.
		g.rf[t] = g.rf[t][:cut:cut]
	}
	g.invalidate()
}

// Fingerprint returns a canonical string identifying the graph up to
// stamps. Two graphs with equal fingerprints lead to the same complete
// executions (the revisit restriction reads stamps, so the states on
// the way can differ: see the core.Stats doc). The explorer keys its
// visited set on the hashed Fingerprint128 instead; this string is the
// reference the explorer's tests audit that key against.
func (g *Graph) Fingerprint() string {
	var b strings.Builder
	for t, evs := range g.Threads {
		fmt.Fprintf(&b, "|T%d:", t)
		for i, e := range evs {
			fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%t;", e.Kind, e.Mode, e.Loc, e.Val, e.RVal, e.Degraded)
			if e.IsReadLike() {
				rf := g.rfAt(t, i)
				if rf.Bottom {
					b.WriteString("rf=⊥;")
				} else {
					fmt.Fprintf(&b, "rf=%d.%d;", rf.W.Thread, rf.W.Index)
				}
			}
		}
	}
	for l, order := range g.Mo {
		fmt.Fprintf(&b, "|mo%d:", l)
		for _, w := range order {
			fmt.Fprintf(&b, "%d.%d,", w.Thread, w.Index)
		}
	}
	return b.String()
}

// CheckInvariants verifies structural well-formedness: rf entries exist
// for exactly the read-like events and point to same-location write-like
// events present in the graph; mo contains exactly the write-like
// events per location, each once, with init first. It returns an error
// describing the first violation found, or nil.
//
// This is an internal audit used by tests (including property-based
// tests); exploration relies on these invariants holding at every step.
func (g *Graph) CheckInvariants() error {
	for t, evs := range g.Threads {
		if len(g.rf[t]) != len(evs) {
			return fmt.Errorf("thread %d: rf row has %d entries, %d events", t, len(g.rf[t]), len(evs))
		}
		for i, e := range evs {
			if e.ID.Index != i {
				return fmt.Errorf("event %v stored at index %d", e.ID, i)
			}
			if !e.IsReadLike() {
				if g.rfAt(t, i) != noRF {
					return fmt.Errorf("non-read %v carries an rf entry", e.ID)
				}
			} else {
				rf := g.rfAt(t, i)
				if rf == noRF {
					return fmt.Errorf("read %v has no rf entry", e.ID)
				}
				if !rf.Bottom {
					w := g.Event(rf.W)
					if w == nil {
						return fmt.Errorf("read %v rf-source %v missing", e.ID, rf.W)
					}
					if !w.IsWriteLike() {
						return fmt.Errorf("read %v reads from non-write %v", e.ID, rf.W)
					}
					if w.Loc != e.Loc {
						return fmt.Errorf("read %v (loc%d) reads from %v (loc%d)", e.ID, e.Loc, rf.W, w.Loc)
					}
					if w.Val != e.RVal {
						return fmt.Errorf("read %v observed %d but source %v wrote %d", e.ID, e.RVal, rf.W, w.Val)
					}
				}
			}
			if e.IsWriteLike() {
				if g.MoIndex(e.Loc, e.ID) < 0 {
					return fmt.Errorf("write %v absent from mo of loc%d", e.ID, e.Loc)
				}
			}
		}
	}
	for l, order := range g.Mo {
		if len(order) == 0 || !order[0].IsInit() || order[0].Index != l {
			return fmt.Errorf("mo of loc%d does not start with its init write", l)
		}
		seen := map[EventID]bool{}
		for _, w := range order {
			if seen[w] {
				return fmt.Errorf("mo of loc%d lists %v twice", l, w)
			}
			seen[w] = true
			e := g.Event(w)
			if e == nil {
				return fmt.Errorf("mo of loc%d lists missing event %v", l, w)
			}
			if !w.IsInit() && (!e.IsWriteLike() || e.Loc != Loc(l)) {
				return fmt.Errorf("mo of loc%d lists unsuitable event %v", l, w)
			}
		}
	}
	return nil
}
