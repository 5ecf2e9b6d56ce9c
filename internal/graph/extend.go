package graph

// wordScratch returns a zeroed vector of n words out of a pooled scratch;
// the caller returns the scratch to acyclicPool when done.
func wordScratch(n int) (*acyclicScratch, []uint64) {
	s := acyclicPool.Get().(*acyclicScratch)
	if cap(s.seen) < n {
		s.seen = make([]uint64, n)
	} else {
		s.seen = s.seen[:n]
		clear(s.seen)
	}
	return s, s.seen
}

// deltaScratch carves the five working bit-vectors of an incremental
// relation delta (Extend, Resolve) out of one pooled strip of
// 5*words zeroed words.
func deltaScratch(words int) (s *acyclicScratch, hbIn, ecoIn, ecoOut, ecoCol, ecoRow []uint64) {
	s, v := wordScratch(5 * words)
	return s, v[0*words : 1*words], v[1*words : 2*words],
		v[2*words : 3*words], v[3*words : 4*words], v[4*words : 5*words]
}

// Extend computes the relations of g incrementally, where g was derived
// from the graph r describes by appending exactly the event e (with its
// rf choice recorded and, for write-likes, its mo position inserted).
// This is the exploration hot path: instead of re-deriving sb/rf/mo/fr/
// sw and re-running two O(n³/64) transitive closures, Extend copies the
// parent's matrices with one extra row/column and adds only the edges
// the new event introduces.
//
// Why this is sound (and what the invariants are):
//
//   - e has the largest stamp in g, so it takes dense index N: existing
//     indices never shift.
//   - Appending an event never changes a relation edge between two
//     existing events, with one exception: eco gains self-loops on
//     events that both reach and are reached by e. All direct new
//     sb/sw edges point INTO e (it is the last event of its thread and
//     nothing reads from it yet), so hb stays closed after adding e's
//     column. Eco gains both in-edges (rf source, mo predecessors,
//     fr from reads with earlier sources) and out-edges (mo successors,
//     fr targets), but every direct in×out pair is already covered by a
//     direct mo or fr edge between the existing endpoints — except when
//     the two endpoints coincide, which is exactly the self-loop case.
//
// TestExtendMatchesBuild cross-checks every matrix against BuildRels on
// randomized exploration histories.
func (r *Rels) Extend(g *Graph, e *Event) *Rels {
	n := r.N
	ni := n // dense index of the new event
	// Header, index arrays and slab come from g's free list (grownInto
	// overwrites every word of a used slab); the five working
	// bit-vectors share one pooled scratch strip (hbIn: direct sb ∪ sw
	// edges u -> e; ecoIn/ecoOut: direct rf ∪ mo ∪ fr edges into/out of
	// e; ecoCol/ecoRow: the closure update working sets).
	nr, _ := g.fl.newRels(g, n+1)
	nr.copyIndex(r)
	nr.Ev = append(nr.Ev, e)
	trow := r.tIdx[e.ID.Thread]
	nr.tIdx[e.ID.Thread] = append(nr.tIdx[e.ID.Thread], int32(ni))
	r.Sb.grownInto(nr.Sb)
	r.SbLoc.grownInto(nr.SbLoc)
	r.RfM.grownInto(nr.RfM)
	r.MoM.grownInto(nr.MoM)
	r.FrM.grownInto(nr.FrM)

	words := nr.Sb.words
	scratch, hbIn, ecoIn, ecoOut, ecoCol, ecoRow := deltaScratch(words)

	// Cached topological order maintenance (see Rels.topo): while the
	// relation edges are added below, track the extreme positions the
	// new event's direct sb ∪ rf ∪ mo neighbors occupy in the parent's
	// order. When every in-neighbor sits before every out-neighbor, e
	// slots in between and the parent's order extends by a single
	// insertion; otherwise the order is re-derived (or the union was
	// already cyclic, which extension can never undo). fr edges are
	// deliberately not tracked — they are not part of the cached union.
	var posOf []int32
	maxIn, minOut := -1, n
	if r.topoState == topoValid {
		scratch.pos = int32Scratch(scratch.pos, n)
		posOf = scratch.pos
		for k, v := range r.topo {
			posOf[v] = int32(k)
		}
	}
	trackIn := func(u int) {
		if posOf != nil {
			if p := int(posOf[u]); p > maxIn {
				maxIn = p
			}
		}
	}
	trackOut := func(u int) {
		if posOf != nil {
			if p := int(posOf[u]); p < minOut {
				minOut = p
			}
		}
	}

	// sb / sb-loc: inits and po predecessors precede e.
	isAccess := e.Kind != KFence && e.Kind != KError
	for i := 0; i < r.nInit; i++ {
		nr.Sb.Set(i, ni)
		SetBit(hbIn, i)
		trackIn(i)
		if isAccess && r.Ev[i].Loc == e.Loc {
			nr.SbLoc.Set(i, ni)
		}
	}
	for _, p := range g.Threads[e.ID.Thread][:e.ID.Index] {
		pi := int(trow[p.ID.Index])
		nr.Sb.Set(pi, ni)
		SetBit(hbIn, pi)
		trackIn(pi)
		if isAccess && p.Kind != KFence && p.Kind != KError && p.Loc == e.Loc {
			nr.SbLoc.Set(pi, ni)
		}
	}

	// rf and fr contributed by e's read part.
	rf := g.rf[e.ID.Thread][e.ID.Index]
	if e.IsReadLike() && !rf.Bottom {
		wi := r.IndexOf(rf.W)
		nr.RfM.Set(wi, ni)
		SetBit(ecoIn, wi)
		trackIn(wi)
		if src := g.MoIndex(e.Loc, rf.W); src >= 0 {
			for _, w := range g.Mo[e.Loc][src+1:] {
				if w == e.ID {
					continue // an update never fr-precedes itself
				}
				oi := r.IndexOf(w)
				nr.FrM.Set(ni, oi)
				SetBit(ecoOut, oi)
			}
		}
	}

	// mo and incoming fr contributed by e's write part. A write-like
	// event absent from mo (a blocked update whose rf is still ⊥)
	// contributes nothing, exactly as in BuildRels.
	pos := -1
	if e.IsWriteLike() {
		pos = g.MoIndex(e.Loc, e.ID)
	}
	if pos >= 0 {
		order := g.Mo[e.Loc]
		for _, w := range order[:pos] {
			pi := r.IndexOf(w)
			nr.MoM.Set(pi, ni)
			SetBit(ecoIn, pi)
			trackIn(pi)
		}
		for _, w := range order[pos+1:] {
			si := r.IndexOf(w)
			nr.MoM.Set(ni, si)
			SetBit(ecoOut, si)
			trackOut(si)
		}
		// Every existing read whose source is mo-before e now also
		// from-reads e.
		for t, evs := range g.Threads {
			for i, re := range evs {
				if !re.IsReadLike() || re.Loc != e.Loc || re.ID == e.ID {
					continue
				}
				rrf := g.rf[t][i]
				if rrf.Bottom {
					continue
				}
				if src := g.MoIndex(e.Loc, rrf.W); src >= 0 && src < pos {
					ri := r.IndexOf(re.ID)
					nr.FrM.Set(ri, ni)
					SetBit(ecoIn, ri)
				}
			}
		}
	}

	// sw: as the last event of its thread that nothing reads from yet,
	// e only ever RECEIVES synchronizes-with edges — as an acquire
	// read-like from the release sides of its rf source's release
	// sequence, or as an acquire fence on behalf of the po-earlier reads
	// of its thread. (Release sides of e affect only future events.)
	emit := func(s int) {
		if s != ni {
			SetBit(hbIn, s)
		}
	}
	if e.IsReadLike() {
		r.swInto(g, e.Mode, rf, emit)
	}
	if e.Kind == KFence && e.Mode.HasAcq() {
		for _, rd := range g.Threads[e.ID.Thread][:e.ID.Index] {
			if rd.IsReadLike() {
				r.swInto(g, e.Mode, g.rf[rd.ID.Thread][rd.ID.Index], emit)
			}
		}
	}

	// hb: every new edge points into e, so the old closure stays closed;
	// e's column is the direct predecessors plus everything hb-before
	// one of them.
	r.Hb.grownInto(nr.Hb)
	for v := 0; v < n; v++ {
		if HasBit(hbIn, v) || r.Hb.rowIntersects(v, hbIn) {
			nr.Hb.Set(v, ni)
		}
	}

	// eco: the column is everything that reaches a direct in-edge, the
	// row everything reachable from a direct out-edge, and the only new
	// edges between existing events are self-loops on events that both
	// reach and are reached by e.
	r.Eco.grownInto(nr.Eco)
	copy(ecoRow, ecoOut)
	for v := 0; v < n; v++ {
		if HasBit(ecoOut, v) {
			r.Eco.orRowInto(v, ecoRow)
		}
		if HasBit(ecoIn, v) || r.Eco.rowIntersects(v, ecoIn) {
			SetBit(ecoCol, v)
			nr.Eco.Set(v, ni)
		}
	}
	cyclic := false
	for v := 0; v < n; v++ {
		if HasBit(ecoRow, v) {
			nr.Eco.Set(ni, v)
			if HasBit(ecoCol, v) {
				nr.Eco.Set(v, v)
				cyclic = true
			}
		}
	}
	if cyclic {
		nr.Eco.Set(ni, ni)
	}

	// Cached topological order: e's only edges touch e itself, so the
	// parent's order stays valid for all existing vertices and only e
	// needs a position.
	switch {
	case r.topoState == topoCyclic:
		// Extension never removes edges, so a cyclic union stays cyclic.
		nr.topoState = topoCyclic
		acCyclicSt.Add(1)
	case r.topoState == topoValid && maxIn < minOut:
		// Every in-neighbor precedes every out-neighbor: slot e directly
		// before its earliest out-neighbor (or at the end). Inserting
		// into the position→vertex slice shifts the later positions by
		// one without touching any value, preserving validity.
		nr.topo = int32Scratch(nr.topo, n+1)
		copy(nr.topo, r.topo[:minOut])
		nr.topo[minOut] = int32(ni)
		copy(nr.topo[minOut+1:], r.topo[minOut:])
		nr.topoState = topoValid
		acExtends.Add(1)
	default:
		// A back edge (some out-neighbor placed before an in-neighbor)
		// or an underived parent: leave the child at topoNone, so the
		// re-derivation happens lazily — only if this state survives to
		// a check that wants the order (ensureTopo).
	}
	acyclicPool.Put(scratch)

	return nr
}

// Resolve computes the relations of g incrementally, where g was
// derived from the graph r describes by resolving the formerly-⊥ read
// e: same events, same sb/mo, but e — the last event of its thread —
// now reads from a real write (updates resolved read-only, so mo is
// untouched). This is the hot path of the await-termination
// resolvability scan (core.resolvable), which builds one such graph
// per candidate write and asks only for a consistency verdict.
//
// Soundness mirrors Extend: every new edge touches e. e gains rf/sw
// in-edges and fr out-edges; as the last event of its thread it has no
// sb successors, so its hb row stays empty and the old hb closure
// remains closed once e's column absorbs the direct predecessors and
// their hb-ancestors. Eco gains e's column (everything reaching the rf
// source), e's row (everything reachable from the fr targets), and —
// exactly as in Extend — the only new edges between existing events
// are self-loops on events that both reach and are reached by e.
func (r *Rels) Resolve(g *Graph, e *Event) *Rels {
	n := r.N
	ei := r.IndexOf(e.ID)
	nr, _ := g.fl.newRels(g, n) // the seven copies overwrite a used slab
	nr.copyIndex(r)
	// e was re-created with its new RVal/Degraded state: swap the node.
	nr.Ev[ei] = e

	copy(nr.Sb.bits, r.Sb.bits)
	copy(nr.SbLoc.bits, r.SbLoc.bits)
	copy(nr.RfM.bits, r.RfM.bits)
	copy(nr.MoM.bits, r.MoM.bits)
	copy(nr.FrM.bits, r.FrM.bits)
	copy(nr.Hb.bits, r.Hb.bits)
	copy(nr.Eco.bits, r.Eco.bits)

	scratch, hbIn, ecoIn, ecoOut, ecoCol, rowVec := deltaScratch(nr.Sb.words)

	rf := g.rf[e.ID.Thread][e.ID.Index]
	wi := r.IndexOf(rf.W)
	nr.RfM.Set(wi, ei)
	SetBit(ecoIn, wi)

	// fr: e now from-reads every write mo-after its source. e itself is
	// not in mo (it resolved read-only), so there are no incoming fr.
	if src := g.MoIndex(e.Loc, rf.W); src >= 0 {
		for _, w := range g.Mo[e.Loc][src+1:] {
			oi := r.IndexOf(w)
			nr.FrM.Set(ei, oi)
			SetBit(ecoOut, oi)
		}
	}

	// sw: e can only RECEIVE synchronization (it writes nothing and has
	// no po successors, so there are no acquire fences after it).
	r.swInto(g, e.Mode, rf, func(s int) {
		if s != ei {
			SetBit(hbIn, s)
		}
	})

	// hb: e's row is empty (no sb successors), so the closure stays
	// closed once e's column absorbs the direct predecessors and their
	// hb-ancestors.
	for v := 0; v < n; v++ {
		if v != ei && (HasBit(hbIn, v) || r.Hb.rowIntersects(v, hbIn)) {
			nr.Hb.Set(v, ei)
		}
	}

	// eco: same column/row/self-loop update as Extend. e had no eco
	// edges before (its rf was ⊥ and it holds no mo position), so the
	// update is purely additive and e can never appear in its own
	// column or row vectors.
	copy(rowVec, ecoOut)
	for v := 0; v < n; v++ {
		if HasBit(ecoOut, v) {
			r.Eco.orRowInto(v, rowVec)
		}
		if HasBit(ecoIn, v) || r.Eco.rowIntersects(v, ecoIn) {
			SetBit(ecoCol, v)
			nr.Eco.Set(v, ei)
		}
	}
	cyclic := false
	for v := 0; v < n; v++ {
		if HasBit(rowVec, v) {
			nr.Eco.Set(ei, v)
			if HasBit(ecoCol, v) {
				nr.Eco.Set(v, v)
				cyclic = true
			}
		}
	}
	if cyclic {
		nr.Eco.Set(ei, ei)
	}

	// Cached topological order: the only new union edge is rf (w → e),
	// and both endpoints already have positions. When the parent's
	// order happens to place w before e, it is still valid for the
	// resolved graph; otherwise leave the order for lazy re-derivation.
	switch {
	case r.topoState == topoCyclic:
		nr.topoState = topoCyclic
		acCyclicSt.Add(1)
	case r.topoState == topoValid:
		wPos, ePos := -1, -1
		for k, v := range r.topo {
			switch int(v) {
			case wi:
				wPos = k
			case ei:
				ePos = k
			}
		}
		if wPos < ePos {
			nr.topo = append(nr.topo[:0], r.topo...)
			nr.topoState = topoValid
			acExtends.Add(1)
		}
	}

	acyclicPool.Put(scratch)
	return nr
}
