package graph

// Rels materializes the derived relations of an execution graph over a
// dense event index, ready for the axiomatic consistency predicates in
// internal/mm. Index layout: init writes first (one per location), then
// explicit events in stamp (addition) order. Stamp order is what makes
// Extend possible: the event appended last has the largest stamp, so an
// extension always adds index N — one new row and column — and never
// shifts existing indices.
type Rels struct {
	G     *Graph
	N     int
	Ev    []*Event // indexed events; init events synthesized
	nInit int
	// tIdx maps (thread, po-index) to the dense index. Every Rels owns
	// its rows (Extend and Resolve copy the parent's), so a retired
	// header takes them along to its next user.
	tIdx [][]int32

	Sb    *BitMat // program order (transitive), init before everything
	RfM   *BitMat // reads-from as a matrix (w -> r)
	MoM   *BitMat // modification order (transitive per location)
	FrM   *BitMat // from-read: r -> w' for w' mo-after rf(r)
	Hb    *BitMat // happens-before = (sb ∪ sw)+
	Eco   *BitMat // extended coherence order = (rf ∪ mo ∪ fr)+
	SbLoc *BitMat // sb restricted to same-location accesses

	// mats embeds the seven carried matrices (the pointers above point
	// into it) with their bit rows carved out of slab, which comes from
	// the graph's free list in one of its size classes. sw is
	// deliberately NOT carried: no consumer reads it after Hb is closed
	// over it, so BuildRels derives it into pooled scratch and drops it.
	mats  [numMats]BitMat
	slab  []uint64
	class int

	// topo caches a topological order of sb ∪ rf ∪ mo over the dense
	// indices (topo[k] = vertex at position k) when topoState is
	// topoValid; the consistency predicates seed their closure-free
	// acyclicity checks from it (see BitMat.AcyclicSeeded). BuildRels
	// derives it with one Kahn pass; Extend maintains it
	// Pearce–Kelly-style from the one-event delta, so along exploration
	// chains child states inherit a valid order for near-free.
	// topoCyclic records that the union itself is cyclic — a permanent
	// fact, since extension only ever adds edges.
	topo      []int32
	topoState uint8

	// coh records whether eco ∩ hb⁻¹ is empty (see Coherent).
	coh uint8
}

// coh states: not derived yet, eco ∩ hb⁻¹ empty, not empty.
const (
	cohUnknown uint8 = iota
	cohOK
	cohBad
)

// topo cache states. The zero value (topoNone) means "not derived
// yet": the order is computed lazily on first use, so states that die
// before any relation-level check (atomicity, coherence) never pay for
// it. A conflicted Extend (back edge) also parks the child at topoNone
// instead of re-deriving eagerly.
const (
	topoNone uint8 = iota
	topoValid
	topoCyclic
)

// numMats is how many matrices a Rels carries.
const numMats = 7

// ensureTopo derives the cached order on first demand with one Kahn
// pass over the union adjacency (counted as a lazy derivation —
// fresh BuildRels states and Extend's back-edge parks both land here).
func (r *Rels) ensureTopo() {
	if r.topoState != topoNone {
		return
	}
	acDerives.Add(1)
	u := r.Sb.ClonePooled()
	u.OrWith(r.RfM)
	u.OrWith(r.MoM)
	r.topo = int32Scratch(r.topo, r.N)
	if u.kahn(r.topo) {
		r.topoState = topoValid
	} else {
		r.topoState = topoCyclic
		acCyclicSt.Add(1)
	}
	u.Release()
}

// TopoOK reports whether a valid topological order of sb ∪ rf ∪ mo is
// available — which in particular proves that union (and every subset
// of it, e.g. porf) acyclic. Derives the order on first use.
func (r *Rels) TopoOK() bool { r.ensureTopo(); return r.topoState == topoValid }

// TopoCyclic reports whether sb ∪ rf ∪ mo is known to be cyclic —
// which makes every superset cyclic too. Derives on first use.
func (r *Rels) TopoCyclic() bool { r.ensureTopo(); return r.topoState == topoCyclic }

// TopoOrder returns the cached topological order (position → vertex),
// deriving it on first use, or nil when the union is cyclic. The slice
// is shared state: it may be passed to BitMat.AcyclicSeeded freely,
// but to the refreshing BitMat.AcyclicWithOrder only for relations
// that are supersets of sb ∪ rf ∪ mo (a refreshed order must stay
// valid for the union).
func (r *Rels) TopoOrder() []int32 {
	r.ensureTopo()
	if r.topoState != topoValid {
		return nil
	}
	return r.topo
}

// AcyclicSuperset decides acyclicity of m, which the caller guarantees
// is a superset of sb ∪ rf ∪ mo (the SC order candidate
// sb ∪ rf ∪ mo ∪ fr). It exploits the cached order in every state:
// a known-cyclic union rejects immediately; a valid order seeds the
// fast path and is refreshed from m on misses; and when no order has
// been derived yet, the single Kahn pass that decides m doubles as the
// derivation — acyclic supersets hand the state a valid order for
// free, so one pass pays for both the verdict and the cache.
func (r *Rels) AcyclicSuperset(m *BitMat) bool {
	switch r.topoState {
	case topoCyclic:
		acShortcuts.Add(1)
		return false
	case topoValid:
		return m.AcyclicWithOrder(r.topo)
	}
	acChecks.Add(1)
	acKahn.Add(1)
	r.topo = int32Scratch(r.topo, r.N)
	ok := m.kahn(r.topo)
	if ok {
		r.topoState = topoValid
	} else {
		// m cyclic says nothing about the subset union: stay underived.
		acCycles.Add(1)
	}
	m.crossCheck(ok)
	return ok
}

// Coherent reports whether no eco pair is reversed in hb (eco ∩ hb⁻¹ =
// ∅), the coherence axiom irreflexive(hb;eco?) short of hb's own
// irreflexivity. Extend and Restrict carry a parent's answer over (see
// closeOver); otherwise one walk of eco's set bits, probing the much
// denser hb, derives it.
func (r *Rels) Coherent() bool {
	if r.coh == cohUnknown {
		acCohScans.Add(1)
		r.coh = cohOK
		if r.Eco.IntersectsTranspose(r.Hb) {
			r.coh = cohBad
		}
	}
	return r.coh == cohOK
}

// restrictHook, when set, sees every relation set Restrict derives for
// RelsOf. Test-only: see CrossCheckRestrict in export_test.go.
var restrictHook func(derived *Rels)

// IndexOf returns the dense index of the event id.
func (r *Rels) IndexOf(id EventID) int {
	if id.IsInit() {
		return id.Index
	}
	return int(r.tIdx[id.Thread][id.Index])
}

// RelsOf returns the derived relations of g, memoized on the graph:
// the memory-model consistency predicates (four of them in internal/mm)
// all go through here, so one graph state is analyzed at most once
// however many predicates inspect it. When g carries an extension hint
// (NoteExtended) and its parent's relations are still memoized, the
// result is computed incrementally from the parent instead of from
// scratch — the common case during exploration, where every branch is
// parent-plus-one-event — or, for a revisit (NoteRestricted), part of the
// parent plus one event.
func RelsOf(g *Graph) *Rels {
	if g.rels != nil {
		return g.rels
	}
	parent := g.extParent
	switch {
	case g.extKind == extAppend && parent != nil && parent.rels != nil:
		g.rels = parent.rels.Extend(g, g.extEvent)
	case g.extKind == extResolve && parent != nil && parent.rels != nil:
		g.rels = parent.rels.Resolve(g, g.extEvent)
	case g.extKind == extRestrict && parent != nil && parent.rels != nil:
		g.rels = parent.rels.Restrict(g, g.extEvent)
		if restrictHook != nil {
			restrictHook(g.rels)
		}
	default:
		g.rels = BuildRels(g)
	}
	// Drop the hint: it has served its purpose, and holding it would
	// pin the whole ancestor chain (graphs and relations) in memory.
	if parent != nil {
		g.extParent, g.extEvent, g.extKind = nil, nil, extNone
		g.fl.Release(parent)
	}
	return g.rels
}

// setIndex empties Ev and sizes tIdx to nthreads empty rows, ready to be
// appended to.
func (r *Rels) setIndex(nthreads int) {
	r.Ev = r.Ev[:0]
	if cap(r.tIdx) < nthreads {
		r.tIdx = make([][]int32, nthreads)
	}
	r.tIdx = r.tIdx[:nthreads]
	for t := range r.tIdx {
		r.tIdx[t] = r.tIdx[t][:0]
	}
}

// copyIndex makes r's Ev and tIdx copies of o's.
func (r *Rels) copyIndex(o *Rels) {
	r.setIndex(len(o.tIdx))
	r.Ev = append(r.Ev, o.Ev...)
	for t, row := range o.tIdx {
		r.tIdx[t] = append(r.tIdx[t], row...)
	}
}

// BuildRels computes all derived relations of g from scratch.
func BuildRels(g *Graph) *Rels {
	nInit := len(g.InitVals)
	n := nInit + g.NumEvents()
	r, dirty := g.fl.newRels(g, n)
	if dirty {
		clear(r.slab[:numMats*n*r.Sb.words])
	}
	// Index init writes, then explicit events in stamp order: thread rows
	// are stamp-sorted already, so a merge that takes the smallest head
	// does it, with the tIdx rows under construction as its cursors.
	r.setIndex(len(g.Threads))
	r.Ev = append(r.Ev, g.initEvs...)
	for i := nInit; i < n; i++ {
		var next *Event
		for t, evs := range g.Threads {
			if c := len(r.tIdx[t]); c < len(evs) && (next == nil || evs[c].Stamp < next.Stamp) {
				next = evs[c]
			}
		}
		r.Ev = append(r.Ev, next)
		r.tIdx[next.ID.Thread] = append(r.tIdx[next.ID.Thread], int32(i))
	}

	// sb: init before all thread events; po within each thread. The
	// transitive rows are assembled word-wide — each init row is the
	// "every explicit event" mask, and within a thread row(a) is
	// row(a+1) plus the bit for a+1 (a descending suffix OR) — instead
	// of O(n²) individual bit sets.
	if nInit > 0 && n > nInit {
		for j := nInit; j < n; j++ {
			r.Sb.Set(0, j)
		}
		for i := 1; i < nInit; i++ {
			r.Sb.copyRow(i, 0)
		}
	}
	for i := 0; i < nInit; i++ {
		for j := nInit; j < n; j++ {
			if r.Ev[j].Kind != KFence && r.Ev[j].Kind != KError && r.Ev[i].Loc == r.Ev[j].Loc {
				r.SbLoc.Set(i, j)
			}
		}
	}
	for _, evs := range g.Threads {
		for a := len(evs) - 2; a >= 0; a-- {
			ia, ib := r.IndexOf(evs[a].ID), r.IndexOf(evs[a+1].ID)
			r.Sb.copyRow(ia, ib)
			r.Sb.Set(ia, ib)
		}
		for a := 0; a < len(evs); a++ {
			ea := evs[a]
			if ea.Kind == KFence || ea.Kind == KError {
				continue
			}
			ia := r.IndexOf(ea.ID)
			for b := a + 1; b < len(evs); b++ {
				eb := evs[b]
				if eb.Kind != KFence && eb.Kind != KError && ea.Loc == eb.Loc {
					r.SbLoc.Set(ia, r.IndexOf(eb.ID))
				}
			}
		}
	}

	// rf.
	for t, evs := range g.Threads {
		for i, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rf := g.rfAt(t, i)
			if rf.Bottom {
				continue
			}
			r.RfM.Set(r.IndexOf(rf.W), r.IndexOf(e.ID))
		}
	}

	// mo (transitive within each location's total order): the same
	// descending suffix-OR trick as sb — each write's row is its
	// mo-successor's row plus that successor's bit.
	for _, order := range g.Mo {
		for a := len(order) - 2; a >= 0; a-- {
			ia, ib := r.IndexOf(order[a]), r.IndexOf(order[a+1])
			r.MoM.copyRow(ia, ib)
			r.MoM.Set(ia, ib)
		}
	}

	// fr = rf^-1 ; mo (strict): read -> every write mo-after its
	// source. That target set is exactly the source's mo row, so each
	// read's fr row is one word-wide copy (minus the read itself — an
	// update never fr-precedes itself). A source missing from mo
	// cannot happen for well-formed graphs: its empty mo row then
	// yields no fr, as before.
	for t, evs := range g.Threads {
		for i, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rf := g.rfAt(t, i)
			if rf.Bottom {
				continue
			}
			ri := r.IndexOf(e.ID)
			r.FrM.copyRowFrom(ri, r.MoM, r.IndexOf(rf.W))
			r.FrM.Clear(ri, ri)
		}
	}

	sw := NewBitMatPooled(n)
	r.buildSw(sw)

	copy(r.Hb.bits, r.Sb.bits)
	r.Hb.OrWith(sw)
	sw.Release()
	r.Hb.TransClose()

	copy(r.Eco.bits, r.RfM.bits)
	r.Eco.OrWith(r.MoM)
	r.Eco.OrWith(r.FrM)
	r.Eco.TransClose()

	return r
}

// buildSw computes the synchronizes-with relation in the RC11 style:
//
//	sw = [rel-side] ; rs ; rf ; [acq-side]
//
// where the release side of a base write w is w itself when it has
// release semantics, or any release fence sb-before w in the same
// thread; rs (the release sequence) is w followed by any chain of
// updates reading from it; and the acquire side of a read r is r itself
// when it has acquire semantics, or any acquire fence sb-after r.
func (r *Rels) buildSw(sw *BitMat) {
	g := r.G
	s, acq := wordScratch(sw.words) // the acquire sides of the read at hand
	for t, evs := range g.Threads {
		for i, re := range evs {
			if !re.IsReadLike() {
				continue
			}
			rf := g.rfAt(t, i)
			if rf.Bottom {
				continue
			}
			clear(acq)
			acquires := re.Mode.HasAcq()
			if acquires {
				SetBit(acq, r.IndexOf(re.ID))
			}
			for _, f := range evs[i+1:] {
				if f.Kind == KFence && f.Mode.HasAcq() {
					SetBit(acq, r.IndexOf(f.ID))
					acquires = true
				}
			}
			if !acquires {
				continue
			}
			r.swFromBases(g, rf.W, func(rel int) {
				sw.orRowFrom(rel, acq)
				sw.Clear(rel, rel) // nothing synchronizes with itself
			})
		}
	}
	acyclicPool.Put(s)
}

// swFromBases walks the release sequence backwards from the rf source
// base (the source itself and, through update chains, each write it
// read from) and calls emit with the index of every release side: the
// base when it carries release semantics, and every release fence
// sb-before the base in its thread.
func (r *Rels) swFromBases(g *Graph, base EventID, emit func(relSide int)) {
	for {
		be := g.Event(base)
		if be.Mode.HasRel() {
			emit(r.IndexOf(base))
		}
		if base.Thread >= 0 {
			for _, f := range g.Threads[base.Thread][:base.Index] {
				if f.Kind == KFence && f.Mode.HasRel() {
					emit(r.IndexOf(f.ID))
				}
			}
		}
		if be.Kind != KUpdate {
			return
		}
		prev := g.RfOf(base)
		if prev.Bottom {
			return
		}
		base = prev.W
	}
}

// swInto calls emit with the index of every release side that
// synchronizes with a read-like event of the given mode reading rf —
// the sw in-edges of an acquire read. A relaxed read, or one still on ⊥,
// receives none.
func (r *Rels) swInto(g *Graph, mode Mode, rf RF, emit func(relSide int)) {
	if mode.HasAcq() && !rf.Bottom {
		r.swFromBases(g, rf.W, emit)
	}
}

// IsSCEvent reports whether indexed event i carries SC mode.
func (r *Rels) IsSCEvent(i int) bool { return r.Ev[i].Mode.IsSC() }

// IsSCFence reports whether indexed event i is an SC fence.
func (r *Rels) IsSCFence(i int) bool { return r.Ev[i].Kind == KFence && r.Ev[i].Mode.IsSC() }

// OrHbLoc ors into dst the same-location hb successors of the accesses
// in sel: dst |= sel;hb|loc. A location's accesses are the SbLoc row of
// its init write, index Loc (which has nothing hb-before it).
func (r *Rels) OrHbLoc(dst, sel []uint64) {
	eachBit(sel, func(i int) {
		if e := r.Ev[i]; e.Kind != KFence && e.Kind != KError {
			hb, loc := r.Hb.Row(i), r.SbLoc.Row(int(e.Loc))
			for w := range dst {
				dst[w] |= hb[w] & loc[w]
			}
		}
	})
}
