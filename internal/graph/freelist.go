package graph

import "unsafe"

// Who owns a state's memory.
//
// A Graph is born holding one reference — for whoever holds it: the
// frontier item that carries it, or the step that built it and will
// throw it away — and gains one per child that names it in an extension
// hint (NoteExtended, NoteResolved, and NoteRestricted: a revisit on the
// frontier keeps the graph it was cut from). FreeList.Release drops a
// reference; RelsOf drops the hint's once the child's relations are derived, and
// Release of a graph whose hint was never consumed (a duplicate, a state
// that failed atomicity) drops it too. Whoever drops the last reference
// — the step that popped the graph, or its last child's RelsOf or
// discard, possibly on a thief — retires the graph's header (with its
// outer Threads/rf/Mo arrays and its signature states) and its memoized
// Rels (header, Ev, tIdx, topo and bit slab, which comes in size
// classes) into the FreeList of the worker doing the dropping, where the
// next Clone, Extend or BuildRels on that worker finds them. Lists start
// empty and hold only what was retired into them.
// The per-thread and per-location rows a header points to are shared
// copy-on-write between clones and always belong to the garbage
// collector.
//
// A release that is never made is safe: the garbage collector is the
// fallback for every object here, and a list that runs dry allocates. A
// release made twice, or made while someone still reads the graph, is
// not: the memory is handed to an unrelated state. So four kinds of
// graph are never released, and internal/graph/poison_test.go has a test
// for each:
//
//   - a graph returned as core.Result.Witness — which is the popped
//     graph itself whenever no thread relabeling applies (canonWitness's
//     identity case);
//   - the state a budget or cancellation stop pushes back on its deque
//     unprocessed (haltUndecided);
//   - every state a checkpoint captured or a run was resumed from: Pin
//     gives it a reference nobody drops, because the snapshot is encoded
//     while the run goes on and a caller may resume from it twice;
//   - the child that is built but not pushed because it splits an update
//     from its rf source (Admission SplitsUpdate): it is not released
//     like a rejected candidate when it is born, since the revisits it
//     seeds read it; it is released once, at the end of pushRevisits.
//
// A FreeList belongs to one goroutine at a time. The nil *FreeList is
// valid: it parks nothing and every request allocates, which is what
// graphs outside an exploration (tests, decoded checkpoints, witnesses)
// get.
type FreeList struct {
	rels   [][]*Rels // by slab size class (see slabClass); a header keeps its slab
	graphs []*Graph
	parked uint64 // bytes sitting in the lists
	c      MemCounters
}

// MemCounters reports what a run asked of its free lists. Slabs counts
// relation sets (a Rels header and its bit slab travel together),
// Headers counts Graph headers. A recycle rate — hits over requests —
// below about 90% on a long run is the first sign of a missed release.
type MemCounters struct {
	SlabRequests, SlabHits, SlabThief       uint64 // Thief: retired by a worker other than the one that built it
	HeaderRequests, HeaderHits, HeaderThief uint64
	HighWaterBytes                          uint64 // most bytes parked in one worker's lists at once
}

// Add accumulates o into c; the high-water mark is per worker, so the
// sum keeps the largest.
func (c *MemCounters) Add(o MemCounters) {
	c.SlabRequests += o.SlabRequests
	c.SlabHits += o.SlabHits
	c.SlabThief += o.SlabThief
	c.HeaderRequests += o.HeaderRequests
	c.HeaderHits += o.HeaderHits
	c.HeaderThief += o.HeaderThief
	c.HighWaterBytes = max(c.HighWaterBytes, o.HighWaterBytes)
}

// Counters returns what the list has counted so far.
func (fl *FreeList) Counters() MemCounters { return fl.c }

// slabRowStep is the granularity of the slab size classes: a slab holds
// the seven matrices of any dimension up to the next multiple of it, so
// the slab a parent retires serves its child's N+1 seven times out of
// eight.
const slabRowStep = 8

func slabClass(n int) int { return (n + slabRowStep - 1) / slabRowStep }

func slabWords(class int) int {
	n := class * slabRowStep
	return numMats * n * ((n + 63) / 64)
}

// poisonHook, when set, sees every Rels and Graph the moment it is
// retired, after it was reset and before it is parked. Test-only: see
// PoisonOnRelease in export_test.go.
var poisonHook func(r *Rels, g *Graph)

// Adopt makes fl the list g's derived allocations — its clones and its
// relations — come from. The explorer calls it on every popped graph: a
// stolen state was built against its producer's list.
func (fl *FreeList) Adopt(g *Graph) {
	if g.fl != fl {
		g.moved = g.fl != nil
		g.fl = fl
	}
}

// Pin gives g a reference that is never dropped, which keeps it and its
// relations away from every free list for good.
func (g *Graph) Pin() { g.refs.Add(1) }

// Release drops one reference to g and, if it was the last, retires g
// into fl (see the FreeList doc for who holds references).
func (fl *FreeList) Release(g *Graph) {
	if p := g.extParent; p != nil {
		// The hint dies unconsumed with its holder.
		g.extParent, g.extEvent, g.extKind = nil, nil, extNone
		fl.Release(p)
	}
	n := g.refs.Add(-1)
	if n < 0 {
		panic("graph: released more often than referenced")
	}
	if n > 0 || fl == nil {
		return
	}
	thief := g.fl != fl
	if r := g.rels; r != nil {
		fl.retireRels(r, thief)
	}
	if thief || g.moved {
		fl.c.HeaderThief++
	}
	clear(g.Threads)
	clear(g.rf)
	clear(g.Mo)
	*g = Graph{Threads: g.Threads[:0], rf: g.rf[:0], Mo: g.Mo[:0], sig: g.sig[:0]}
	if poisonHook != nil {
		poisonHook(nil, g)
	}
	fl.graphs = append(fl.graphs, g)
	fl.park(graphBytes(g))
}

func (fl *FreeList) retireRels(r *Rels, thief bool) {
	if thief {
		fl.c.SlabThief++
	}
	clear(r.Ev)
	r.G, r.N, r.Ev, r.topo, r.topoState, r.coh = nil, 0, r.Ev[:0], r.topo[:0], topoNone, cohUnknown
	r.mats = [numMats]BitMat{}
	if poisonHook != nil {
		poisonHook(r, nil)
	}
	for len(fl.rels) <= r.class {
		fl.rels = append(fl.rels, nil)
	}
	fl.rels[r.class] = append(fl.rels[r.class], r)
	fl.park(relsBytes(r))
}

func (fl *FreeList) park(bytes uint64) {
	fl.parked += bytes
	fl.c.HighWaterBytes = max(fl.c.HighWaterBytes, fl.parked)
}

func graphBytes(g *Graph) uint64 {
	return uint64(unsafe.Sizeof(*g)) + 24*uint64(cap(g.Threads)+cap(g.rf)+cap(g.Mo)) + 16*uint64(cap(g.sig))
}

func relsBytes(r *Rels) uint64 {
	b := uint64(unsafe.Sizeof(*r)) + 8*uint64(cap(r.slab)+cap(r.Ev)) + 4*uint64(cap(r.topo)) + 24*uint64(cap(r.tIdx))
	for _, row := range r.tIdx[:cap(r.tIdx)] {
		b += 4 * uint64(cap(row))
	}
	return b
}

// graph returns a header for a graph of the given shape: refs 1, homed on
// fl, outer arrays sized, signature states empty and every other field
// zero. Row contents are the caller's to fill.
func (fl *FreeList) graph(nthreads, nlocs int) *Graph {
	var g *Graph
	if fl != nil {
		fl.c.HeaderRequests++
		if n := len(fl.graphs); n > 0 {
			g, fl.graphs[n-1] = fl.graphs[n-1], nil
			fl.graphs = fl.graphs[:n-1]
			fl.parked -= graphBytes(g)
			fl.c.HeaderHits++
		}
	}
	if g == nil {
		g = &Graph{}
	}
	if cap(g.Threads) < nthreads || cap(g.rf) < nthreads || cap(g.Mo) < nlocs {
		g.Threads = make([][]*Event, nthreads)
		g.rf = make([][]rfCell, nthreads)
		g.Mo = make([][]EventID, nlocs)
	}
	g.Threads, g.rf, g.Mo, g.sig = g.Threads[:nthreads], g.rf[:nthreads], g.Mo[:nlocs], g.sig[:0]
	g.fl = fl
	g.refs.Store(1)
	return g
}

// newRels returns a Rels header for g with matrices of dimension n
// carved out of its slab. dirty reports that the slab was used before:
// the caller overwrites or clears every word it will read.
func (fl *FreeList) newRels(g *Graph, n int) (r *Rels, dirty bool) {
	class := slabClass(n)
	if fl != nil {
		fl.c.SlabRequests++
		if class < len(fl.rels) {
			if k := len(fl.rels[class]); k > 0 {
				r, fl.rels[class][k-1] = fl.rels[class][k-1], nil
				fl.rels[class] = fl.rels[class][:k-1]
				fl.parked -= relsBytes(r)
				fl.c.SlabHits++
				dirty = true
			}
		}
	}
	if r == nil {
		r = &Rels{slab: make([]uint64, slabWords(class)), class: class}
		r.Sb, r.SbLoc, r.RfM, r.MoM = &r.mats[0], &r.mats[1], &r.mats[2], &r.mats[3]
		r.FrM, r.Hb, r.Eco = &r.mats[4], &r.mats[5], &r.mats[6]
	}
	r.G, r.N, r.nInit = g, n, len(g.InitVals)
	w := (n + 63) / 64
	for i := range r.mats {
		r.mats[i] = BitMat{n: n, words: w, bits: r.slab[i*n*w : (i+1)*n*w]}
	}
	return r, dirty
}
