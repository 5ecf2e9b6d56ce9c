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

// deltaScratch carves the six working bit-vectors of an incremental
// relation delta (addLast, Resolve) out of one pooled strip of 6*words
// zeroed words: hbIn, the direct sb ∪ sw edges u -> e; ecoIn/ecoOut, the
// direct rf ∪ mo ∪ fr edges into/out of e; hbCol/ecoCol/ecoRow, the
// working sets of the closure update (closeOver).
func deltaScratch(words int) (s *acyclicScratch, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow []uint64) {
	s, v := wordScratch(6 * words)
	return s, v[0*words : 1*words], v[1*words : 2*words], v[2*words : 3*words],
		v[3*words : 4*words], v[4*words : 5*words], v[5*words : 6*words]
}

// Extend computes the relations of g incrementally, where g was derived
// from the graph r describes by appending exactly the event e (with its
// rf choice recorded and, for write-likes, its mo position inserted).
// This is the exploration hot path: instead of re-deriving sb/rf/mo/fr/
// sw and re-running two O(n³/64) transitive closures, Extend copies the
// parent's matrices with one extra row/column and adds only the edges
// the new event introduces (addLast).
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
// The cached order and coherence state (see Coherent) carry over the
// same way, updated by the new event's edges alone.
//
// TestExtendMatchesBuild cross-checks every matrix and the coherence
// state against BuildRels and a full scan on randomized exploration
// histories.
func (r *Rels) Extend(g *Graph, e *Event) *Rels {
	// Header, index arrays and slab come from g's free list (grownInto
	// overwrites every word of a used slab).
	nr, _ := g.fl.newRels(g, r.N+1)
	nr.copyIndex(r)
	for i := range r.mats {
		r.mats[i].grownInto(&nr.mats[i])
	}
	if nr.topoState = r.topoState; r.topoState == topoValid {
		nr.topo = int32Scratch(nr.topo, nr.N)
		copy(nr.topo, r.topo)
	}
	nr.coh = r.coh
	nr.addLast(g, e)
	return nr
}

// Restrict computes the relations of g incrementally, where g is the
// graph r describes cut down to a prefix of every thread — the lengths
// of g's own thread rows are the keep-set — with exactly the write-like
// event e appended: a write→read revisit (see NoteRestricted).
//
// The kept rows and columns of r's matrices are the relations of the
// cut-down graph, no closure re-run, because the keep-set is closed under
// po and rf predecessors. sb, sb|loc, rf, mo and fr hold between two
// events by their po, rf and relative mo position alone. Every sb ∪ sw
// predecessor of a kept event is kept (release sides are found walking
// rf backwards), so no hb path into one leaves the keep-set. For eco, r
// must describe a graph that satisfies atomicity, as every graph a model
// found consistent does: with each update mo-adjacent to its rf source,
// eco is rf ∪ (mo ∪ fr);rf? — longer paths have a direct mo or fr
// shortcut — and the one intermediate event is the kept end's rf source.
// Dense indices are ranks among the kept ones (both orders are stamp
// order), and r's cached topological order, filtered, still orders the
// smaller union; a cyclic or underived order is not inherited — cutting
// down can break the cycle — and leaves the child at topoNone. Likewise
// only a coherent state is inherited: the kept pairs are some of r's.
//
// TestExtendMatchesBuild checks restrictions of random atomic graphs
// against BuildRels, TestRestrictDifferential every one a run derives.
func (r *Rels) Restrict(g *Graph, e *Event) *Rels {
	n := r.nInit + g.NumEvents()
	nr, _ := g.fl.newRels(g, n) // every row is cleared or written below
	nr.setIndex(len(r.tIdx))
	// rank maps r's dense indices to g's (-1: dropped); runs lists the
	// maximal runs of consecutive kept indices as (first, its rank, length)
	// triples — a revisit keeps what is older than the revisited read plus
	// the new write's porf prefix, a handful of runs.
	s := acyclicPool.Get().(*acyclicScratch)
	s.pos = int32Scratch(s.pos, r.N)
	rank, runs := s.pos, s.queue[:0]
	for i, ev := range r.Ev {
		if i >= r.nInit && ev.ID.Index >= len(g.Threads[ev.ID.Thread]) {
			rank[i] = -1
			continue
		}
		k := int32(len(nr.Ev))
		if j := len(runs); j > 0 && runs[j-3]+runs[j-1] == int32(i) {
			runs[j-1]++
		} else {
			runs = append(runs, int32(i), k, 1)
		}
		rank[i] = k
		nr.Ev = append(nr.Ev, ev)
		if i >= r.nInit {
			nr.tIdx[ev.ID.Thread] = append(nr.tIdx[ev.ID.Thread], k)
		}
	}
	if len(nr.Ev) != n-1 {
		panic("graph: Restrict of a graph that is not its parent's restriction plus one event")
	}
	s.queue = runs
	for m := range r.mats {
		src, dst := &r.mats[m], &nr.mats[m]
		for i, k := range rank {
			if k < 0 {
				continue
			}
			from, to := src.Row(i), dst.Row(int(k))
			clear(to)
			for j := 0; j < len(runs); j += 3 {
				copyBits(to, int(runs[j+1]), from, int(runs[j]), int(runs[j+2]))
			}
		}
		clear(dst.Row(n - 1))
	}
	if r.topoState == topoValid {
		nr.topo = int32Scratch(nr.topo, n)[:0]
		for _, v := range r.topo {
			if rank[v] >= 0 {
				nr.topo = append(nr.topo, rank[v])
			}
		}
		nr.topo, nr.topoState = nr.topo[:n], topoValid
	}
	if r.coh == cohOK {
		nr.coh = cohOK // the kept pairs are some of r's
	}
	acyclicPool.Put(s)
	nr.addLast(g, e)
	return nr
}

// copyBits ors the n bits of src that start at bit s into dst from bit d
// on: one shift and mask per word boundary crossed on either side.
func copyBits(dst []uint64, d int, src []uint64, s, n int) {
	for n > 0 {
		so, do := s%64, d%64
		k := min(n, 64-so, 64-do)
		dst[d/64] |= src[s/64] >> uint(so) & (^uint64(0) >> uint(64-k)) << uint(do)
		s, d, n = s+k, d+k, n-k
	}
}

// addLast completes relations that describe g without its newest event e
// — matrices of g's dimension with the last row and column empty, the
// index without e, topoState and (when valid) topo[:N-1] the smaller
// graph's — by e's own edges. Extend and Restrict both end here.
func (nr *Rels) addLast(g *Graph, e *Event) {
	n := nr.N - 1
	ni := n // dense index of the new event
	nr.Ev = append(nr.Ev, e)
	trow := nr.tIdx[e.ID.Thread]
	nr.tIdx[e.ID.Thread] = append(trow, int32(ni))

	scratch, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow := deltaScratch(nr.Sb.words)

	// Cached topological order maintenance (see Rels.topo): while the
	// relation edges are added below, track the extreme positions the
	// new event's direct sb ∪ rf ∪ mo neighbors occupy in the inherited
	// order. When every in-neighbor sits before every out-neighbor, e
	// slots in between and the order extends by a single insertion;
	// otherwise the order is re-derived (or the union was already cyclic,
	// which extension can never undo). fr edges are deliberately not
	// tracked — they are not part of the cached union.
	var posOf []int32
	maxIn, minOut := -1, n
	if nr.topoState == topoValid {
		scratch.pos = int32Scratch(scratch.pos, n)
		posOf = scratch.pos
		for k, v := range nr.topo[:n] {
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
	for i := 0; i < nr.nInit; i++ {
		nr.Sb.Set(i, ni)
		SetBit(hbIn, i)
		trackIn(i)
		if isAccess && nr.Ev[i].Loc == e.Loc {
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

	// rf, fr and sw contributed by e's read part: as the last event of its
	// thread that nothing reads from yet, e only ever RECEIVES
	// synchronizes-with edges — as an acquire read-like here, or as an
	// acquire fence on behalf of the po-earlier reads of its thread.
	// (Release sides of e affect only future events.)
	if rf := g.RfOf(e.ID); e.IsReadLike() && !rf.Bottom {
		trackIn(nr.readEdges(g, e, ni, rf, hbIn, ecoIn, ecoOut))
	}
	if e.Kind == KFence && e.Mode.HasAcq() {
		for _, rd := range g.Threads[e.ID.Thread][:e.ID.Index] {
			if rd.IsReadLike() {
				nr.swInto(g, e.Mode, g.RfOf(rd.ID), func(s int) {
					if s != ni {
						SetBit(hbIn, s)
					}
				})
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
			pi := nr.IndexOf(w)
			nr.MoM.Set(pi, ni)
			SetBit(ecoIn, pi)
			trackIn(pi)
		}
		for _, w := range order[pos+1:] {
			si := nr.IndexOf(w)
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
				rrf := g.rfAt(t, i)
				if rrf.Bottom {
					continue
				}
				if src := g.MoIndex(e.Loc, rrf.W); src >= 0 && src < pos {
					ri := nr.IndexOf(re.ID)
					nr.FrM.Set(ri, ni)
					SetBit(ecoIn, ri)
				}
			}
		}
	}

	nr.closeOver(ni, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow)

	// Cached topological order: e's only edges touch e itself, so the
	// inherited order stays valid for all existing vertices and only e
	// needs a position.
	switch {
	case nr.topoState == topoCyclic:
		// Extension never removes edges, so a cyclic union stays cyclic.
		acCyclicSt.Add(1)
	case nr.topoState == topoValid && maxIn < minOut:
		// Every in-neighbor precedes every out-neighbor: slot e directly
		// before its earliest out-neighbor (or at the end). Inserting
		// into the position→vertex slice shifts the later positions by
		// one without touching any value, preserving validity.
		copy(nr.topo[minOut+1:], nr.topo[minOut:n])
		nr.topo[minOut] = int32(ni)
		acExtends.Add(1)
	default:
		// A back edge (some out-neighbor placed before an in-neighbor)
		// or an underived order: leave the child at topoNone, so the
		// re-derivation happens lazily — only if this state survives to
		// a check that wants the order (ensureTopo).
		nr.topoState = topoNone
	}
	acyclicPool.Put(scratch)
}

// readEdges adds the edges into and out of the read part of e, the
// event of dense index ei whose rf source is a write: rf from the
// source, fr to every write mo-after it (an update never fr-precedes
// itself) and, into hbIn, sw from the release sides of the source's
// release sequence. It returns the source's index.
func (nr *Rels) readEdges(g *Graph, e *Event, ei int, rf RF, hbIn, ecoIn, ecoOut []uint64) int {
	wi := nr.IndexOf(rf.W)
	nr.RfM.Set(wi, ei)
	SetBit(ecoIn, wi)
	if src := g.MoIndex(e.Loc, rf.W); src >= 0 {
		for _, w := range g.Mo[e.Loc][src+1:] {
			if w == e.ID {
				continue
			}
			oi := nr.IndexOf(w)
			nr.FrM.Set(ei, oi)
			SetBit(ecoOut, oi)
		}
	}
	nr.swInto(g, e.Mode, rf, func(s int) {
		if s != ei {
			SetBit(hbIn, s)
		}
	})
	return wi
}

// closeOver folds the new direct edges of event ei — whose hb row and
// eco row and column were empty — into the two closures. hb: every new
// edge points into ei, so the old closure stays closed; ei's column is
// the direct predecessors plus everything hb-before one of them. eco:
// the column is everything that reaches a direct in-edge, the row
// everything reachable from a direct out-edge, and the only new edges
// between other events are self-loops on events that both reach and are
// reached by ei. Rows are read in place: the bits set here are in column
// ei, which no operand vector holds.
// A known-coherent state (see Coherent) stays so unless a new pair
// breaks it: ei's eco row against its hb column, its hb row against its
// eco column, or a new eco self-loop on an hb self-loop.
func (nr *Rels) closeOver(ei int, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow []uint64) {
	for v := 0; v < nr.N; v++ {
		if HasBit(hbIn, v) || nr.Hb.rowIntersects(v, hbIn) {
			SetBit(hbCol, v)
			nr.Hb.Set(v, ei)
		}
	}
	copy(ecoRow, ecoOut)
	for v := 0; v < nr.N; v++ {
		if HasBit(ecoOut, v) {
			nr.Eco.orRowInto(v, ecoRow)
		}
		if HasBit(ecoIn, v) || nr.Eco.rowIntersects(v, ecoIn) {
			SetBit(ecoCol, v)
			nr.Eco.Set(v, ei)
		}
	}
	cyclic, hbLoop := false, false
	for v := 0; v < nr.N; v++ {
		if HasBit(ecoRow, v) {
			nr.Eco.Set(ei, v)
			if HasBit(ecoCol, v) {
				nr.Eco.Set(v, v)
				cyclic = true
				hbLoop = hbLoop || nr.Hb.Get(v, v)
			}
		}
	}
	if cyclic {
		nr.Eco.Set(ei, ei)
	}
	if nr.coh == cohOK {
		acCohDelta.Add(1)
		if hbLoop || nr.Eco.rowIntersects(ei, hbCol) || nr.Hb.rowIntersects(ei, ecoCol) {
			nr.coh = cohBad
		}
		if auditCoh != nil {
			auditCoh(nr)
		}
	}
}

// auditCoh, when set, sees every coherence state closeOver decided.
// Test-only: see AuditIncremental in export_test.go.
var auditCoh func(r *Rels)

// Resolve computes the relations of g incrementally, where g was
// derived from the graph r describes by resolving the formerly-⊥ read
// e: same events, same sb/mo, but e — the last event of its thread —
// now reads from a real write (updates resolved read-only, so mo is
// untouched). This is the hot path of the await-termination
// resolvability scan (core.resolvable), which builds one such graph
// per candidate write and asks only for a consistency verdict.
//
// Soundness mirrors Extend: every new edge touches e. e gains rf/sw
// in-edges and fr out-edges (readEdges; it is not in mo, so there is no
// incoming fr); as the last event of its thread it has no sb successors,
// and it had no eco edges before (its rf was ⊥), which is what closeOver
// asks for.
func (r *Rels) Resolve(g *Graph, e *Event) *Rels {
	ei := r.IndexOf(e.ID)
	nr, _ := g.fl.newRels(g, r.N) // the seven copies overwrite a used slab
	nr.copyIndex(r)
	// e was re-created with its new RVal/Degraded state: swap the node.
	nr.Ev[ei] = e
	for i := range r.mats {
		copy(nr.mats[i].bits, r.mats[i].bits)
	}

	scratch, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow := deltaScratch(nr.Sb.words)
	wi := nr.readEdges(g, e, ei, g.RfOf(e.ID), hbIn, ecoIn, ecoOut)
	nr.closeOver(ei, hbIn, ecoIn, ecoOut, hbCol, ecoCol, ecoRow)
	acyclicPool.Put(scratch)

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
	return nr
}
