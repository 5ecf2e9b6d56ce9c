package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randExtendHistory appends nSteps random events to g the way the
// explorer does (clone-free here: we mutate one graph and snapshot
// relations), calling check after every append with the pre-append
// relations (built over a clone, so prev.G stays the parent graph),
// the post-append graph and the new event.
func randExtendHistory(t *testing.T, rng *rand.Rand, nThreads, nLocs, nSteps int,
	check func(prev *Rels, g *Graph, e *Event)) {
	t.Helper()
	randHistory(t, rng, nThreads, nLocs, nSteps, false, check)
}

// splits reports whether a write placed at mo position pos of loc would
// come between a value-changing update and the write it read from.
func splits(g *Graph, loc Loc, pos int) bool {
	order := g.Mo[loc]
	if pos >= len(order) {
		return false
	}
	u := g.Event(order[pos])
	return u.Kind == KUpdate && g.RfOf(u.ID) == FromW(order[pos-1])
}

// randHistory is randExtendHistory with a switch: atomic histories never
// split an update from its rf source, so every graph of one satisfies
// atomicity — which Rels.Restrict asks of its parent.
func randHistory(t *testing.T, rng *rand.Rand, nThreads, nLocs, nSteps int, atomic bool,
	check func(prev *Rels, g *Graph, e *Event)) {
	t.Helper()
	initVals := make([]Val, nLocs)
	names := make([]string, nLocs)
	for l := range names {
		names[l] = fmt.Sprintf("v%d", l)
	}
	g := New(nThreads, initVals, names)
	modes := []Mode{Rlx, Acq, Rel, AcqRel, SC}
	val := Val(1)
	for s := 0; s < nSteps; s++ {
		prev := BuildRels(g.Clone())
		tid := rng.Intn(nThreads)
		loc := Loc(rng.Intn(nLocs))
		mode := modes[rng.Intn(len(modes))]
		e := &Event{
			ID:       EventID{Thread: tid, Index: len(g.Threads[tid])},
			Mode:     mode,
			Loc:      loc,
			AwaitSeq: -1,
		}
		switch k := rng.Intn(10); {
		case k < 3: // write
			e.Kind = KWrite
			e.Val = val
			val++
			pos := 1 + rng.Intn(len(g.Mo[loc]))
			for atomic && splits(g, loc, pos) {
				pos++
			}
			g.Append(e)
			g.InsertMo(loc, e.ID, pos)
		case k < 6: // read (sometimes bottom)
			e.Kind = KRead
			if rng.Intn(4) == 0 {
				g.Append(e)
				g.SetRF(e.ID, BottomRF)
			} else {
				order := g.Mo[loc]
				w := order[rng.Intn(len(order))]
				e.RVal = g.WriteVal(w)
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
			}
		case k < 8: // update (sometimes degraded or blocked on ⊥)
			e.Kind = KUpdate
			if rng.Intn(5) == 0 {
				// Blocked update: ⊥ rf, write part not yet in mo.
				g.Append(e)
				g.SetRF(e.ID, BottomRF)
				break
			}
			order := g.Mo[loc]
			src := rng.Intn(len(order))
			for atomic && splits(g, loc, src+1) {
				src++
			}
			w := order[src]
			e.RVal = g.WriteVal(w)
			if rng.Intn(3) == 0 {
				e.Degraded = true
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
			} else {
				e.Val = val
				val++
				g.Append(e)
				g.SetRF(e.ID, FromW(w))
				g.InsertMo(loc, e.ID, src+1)
			}
		default: // fence
			e.Kind = KFence
			e.Loc = 0
			g.Append(e)
		}
		check(prev, g, e)
	}
}

// allocsGraph is the twelve-write, two-thread graph of the allocation
// bars below, with one more write e appended and prev the relations of
// the graph before it.
func allocsGraph(fl *FreeList) (g *Graph, prev *Rels, e *Event) {
	g = New(2, []Val{0, 0}, []string{"x", "y"})
	fl.Adopt(g)
	val := Val(1)
	for i := 0; i < 12; i++ {
		w := &Event{ID: EventID{Thread: i % 2, Index: i / 2}, Kind: KWrite, Mode: Rel,
			Loc: Loc(i % 2), Val: val, AwaitSeq: -1}
		val++
		g.Append(w)
		g.InsertMo(w.Loc, w.ID, 1)
	}
	prev = BuildRels(g)
	e = &Event{ID: EventID{Thread: 0, Index: 6}, Kind: KWrite, Mode: Rel, Loc: 0, Val: val, AwaitSeq: -1}
	g.Append(e)
	g.InsertMo(0, e.ID, 1)
	prev.ensureTopo()
	return g, prev, e
}

// TestAllocsExtend bounds the allocations of one incremental relation
// extension for a graph that has no free list: the Rels struct with its
// embedded matrices, one bit slab, the event and index rows and the
// cached-order slice — the working vectors are pooled and nothing is
// per-event. Gated out of -short like the other allocation bars.
func TestAllocsExtend(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	g, prev, e := allocsGraph(nil)
	allocs := testing.AllocsPerRun(100, func() {
		prev.Extend(g, e)
	})
	// Measured 8 (the header, the slab, Ev and its growth, tIdx and its
	// two rows, topo); bar at 12.
	if allocs > 12 {
		t.Errorf("Rels.Extend allocates %.0f objects, regression bar is 12", allocs)
	}
}

// TestAllocsRecycled: with a free list that has seen one state of the
// shape, building, extending and cloning allocate nothing at all — the
// steady state of the explorer's step.
func TestAllocsRecycled(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	var fl FreeList
	g, prev, e := allocsGraph(&fl)
	for name, f := range map[string]func(){
		"Rels.Extend": func() { fl.retireRels(prev.Extend(g, e), false) },
		"BuildRels":   func() { fl.retireRels(BuildRels(g), false) },
		"Graph.Clone": func() { fl.Release(g.Clone()) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.0f objects with a warm free list, want 0", name, allocs)
		}
	}
	if c := fl.Counters(); c.SlabHits == 0 || c.HeaderHits == 0 || c.SlabThief+c.HeaderThief != 0 {
		t.Errorf("free list counters after a single-worker run: %+v", c)
	}
}

// TestAllocsAdmit: the birth filter runs once per rf/mo candidate and
// must not reach the allocator — its one working vector is pooled and
// its closures stay on the stack. The candidate is an acquire read of a
// non-maximal release write, so every part of the predicate runs.
func TestAllocsAdmit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	g := New(2, []Val{0}, []string{"x"})
	for i := 0; i < 6; i++ {
		w := &Event{ID: EventID{Thread: 0, Index: i}, Kind: KWrite, Mode: Rel, Val: Val(i + 1), AwaitSeq: -1}
		g.Append(w)
		g.InsertMo(0, w.ID, i+1)
	}
	r := BuildRels(g)
	c := Candidate{Thread: 1, Kind: KUpdate, Mode: AcqRel, RF: EventID{Thread: 0, Index: 2}}
	if a := r.Admit(c); a != Admissible {
		t.Fatalf("Admit = %d, want the candidate admitted (nothing is hb-before thread 1)", a)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Admit(c) }); allocs != 0 {
		t.Errorf("Rels.Admit allocates %.0f objects, want 0", allocs)
	}
}

// assertCoherence fails unless r's coherence state, when known, is what a
// full scan of eco against hb finds, or unless r knows it when its
// parent did (known: Extend inherits every state, Restrict a coherent
// one). It reports whether r is known incoherent.
func assertCoherence(t *testing.T, r *Rels, known bool, g *Graph, what string) (incoherent bool) {
	t.Helper()
	if r.coh == cohUnknown {
		if known {
			t.Fatalf("%s: the parent's coherence state was not carried over\ngraph:\n%s", what, g.Render())
		}
		return false
	}
	if got, want := r.coh == cohOK, !r.Eco.IntersectsTranspose(r.Hb); got != want {
		t.Fatalf("%s: coherence carried as %v, a full scan finds %v\ngraph:\n%s", what, got, want, g.Render())
	}
	return r.coh == cohBad
}

// assertSameRels fails unless got holds exactly the index and the seven
// matrices of want, the relations BuildRels derived for g.
func assertSameRels(t *testing.T, got, want *Rels, g *Graph, what string) {
	t.Helper()
	if d := diffRels(got, want); d != "" {
		t.Fatalf("%s: %s\ngraph:\n%s", what, d, g.Render())
	}
}

// TestExtendMatchesBuild is the correctness bar of the incremental
// relations: on randomized exploration histories, Rels.Extend must
// produce exactly the matrices BuildRels derives from scratch — and so
// must Rels.Restrict on random revisits of the graphs of atomic
// histories (randRevisit), small ones and ones past 64 events, where a
// row is two words and a kept run crosses the boundary. Restrict's
// contract, checked here: the parent satisfies atomicity (without it eco
// paths through a dropped event have no shortcut, and the test fails
// within a few trials when the switch is turned off); the child inherits
// a valid parent order filtered, and a cyclic or underived one not at
// all — it stays topoNone until somebody asks. Both carry the parent's
// coherence state over when it is known (a coherent one, for Restrict)
// and must agree with a full scan; the histories have to reach a state
// the one-event delta finds incoherent.
func TestExtendMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var broken int // coherent parents whose child the delta found incoherent
	for trial := 0; trial < 60; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(3)
		randExtendHistory(t, rng, nThreads, nLocs, 14, func(prev *Rels, g *Graph, e *Event) {
			if rng.Intn(4) > 0 {
				prev.Coherent()
			}
			ext := prev.Extend(g, e)
			what := fmt.Sprintf("trial %d: appending %v", trial, e)
			assertSameRels(t, ext, BuildRels(g), g, what)
			assertTopoInvariant(t, ext, g)
			if assertCoherence(t, ext, prev.coh != cohUnknown, g, what) && prev.coh == cohOK {
				broken++
			}
		})
	}
	var revisits, wide, inherited int
	for trial := 0; trial < 48; trial++ {
		nThreads := 2 + rng.Intn(3)
		nLocs := 1 + rng.Intn(3)
		nSteps := 14
		if trial%8 == 0 {
			nSteps = 90
		}
		randHistory(t, rng, nThreads, nLocs, nSteps, true, func(prev *Rels, g *Graph, e *Event) {
			// The parent's relations as the explorer holds them: extended or
			// built, the order derived or not yet.
			parent := prev.Extend(g, e)
			if rng.Intn(3) == 0 {
				parent = BuildRels(g)
			}
			if rng.Intn(2) == 0 {
				parent.ensureTopo()
			}
			if rng.Intn(4) > 0 {
				parent.Coherent()
			}
			for k := 0; k < 3; k++ {
				g3, wv := randRevisit(rng, g)
				if g3 == nil {
					continue
				}
				res := parent.Restrict(g3, wv)
				what := fmt.Sprintf("trial %d: revisit by %v of\n%s", trial, wv, g.Render())
				assertSameRels(t, res, BuildRels(g3), g3, what)
				if assertCoherence(t, res, parent.coh == cohOK, g3, what) && parent.coh == cohOK {
					broken++
				}
				if parent.topoState != topoValid && res.topoState != topoNone {
					t.Fatalf("trial %d: order state %d inherited from a parent in state %d", trial, res.topoState, parent.topoState)
				}
				if res.topoState == topoValid {
					inherited++
				}
				assertTopoInvariant(t, res, g3)
				revisits++
				if crossesWord(parent, res) {
					wide++
				}
			}
		})
	}
	if revisits < 1000 || wide < 50 || inherited < 200 || broken == 0 {
		t.Fatalf("generator too thin: %d revisits, %d with a kept run across a word boundary, %d inheriting an order, %d made incoherent by a delta",
			revisits, wide, inherited, broken)
	}
	t.Logf("%d revisits, %d coherent parents made incoherent by a delta", revisits, broken)
}

// randRevisit cuts g the way a write→read revisit does: a fresh
// write-like event wv is appended to a random thread, and a random
// po-prefix-closed, rf-closed set of the other threads' events is kept
// with it (reads whose source was dropped go too, as in the explorer's
// closure-drop). It returns nil when the closure reached wv's own thread.
func randRevisit(rng *rand.Rand, g *Graph) (*Graph, *Event) {
	tw := rng.Intn(len(g.Threads))
	cut := make([]int, len(g.Threads))
	for t, evs := range g.Threads {
		cut[t] = len(evs)
		if t != tw && rng.Intn(3) > 0 {
			cut[t] = rng.Intn(len(evs) + 1)
		}
	}
	for changed := true; changed; {
		changed = false
		for t, evs := range g.Threads {
			for i, e := range evs[:cut[t]] {
				if rf := g.rfAt(t, i); e.IsReadLike() && !rf.Bottom && !rf.W.IsInit() && rf.W.Index >= cut[rf.W.Thread] {
					cut[t], changed = i, true
					break
				}
			}
		}
	}
	if cut[tw] != len(g.Threads[tw]) {
		return nil, nil
	}
	loc := Loc(rng.Intn(len(g.Mo)))
	var kept []int // mo positions of the writes wv may read from or follow
	for i, w := range g.Mo[loc] {
		if w.IsInit() || w.Index < cut[w.Thread] {
			kept = append(kept, i)
		}
	}
	wv := &Event{ID: EventID{Thread: tw, Index: len(g.Threads[tw])}, Kind: KWrite,
		Mode: []Mode{Rlx, Rel, AcqRel, SC}[rng.Intn(4)], Loc: loc, Val: Val(1000 + g.NextStamp), AwaitSeq: -1}
	g2 := g.Clone()
	pos := 1 + rng.Intn(len(g.Mo[loc]))
	if rng.Intn(2) == 0 {
		src := kept[rng.Intn(len(kept))]
		wv.Kind, wv.RVal, pos = KUpdate, g.WriteVal(g.Mo[loc][src]), src+1
		g2.Append(wv)
		g2.SetRF(wv.ID, FromW(g.Mo[loc][src]))
	} else {
		g2.Append(wv)
	}
	g2.InsertMo(loc, wv.ID, pos)
	keep := NewEventSet(g2.NextStamp)
	keep.Add(wv)
	for t, evs := range g.Threads {
		for _, e := range evs[:cut[t]] {
			keep.Add(e)
		}
	}
	g2.RestrictTo(keep)
	return g2, wv
}

// crossesWord reports whether some run of consecutive kept indices of
// parent lies across bit 64 of a row, in parent or in its restriction res.
func crossesWord(parent, res *Rels) bool {
	for i := 1; i < res.N-1; i++ {
		a, b := parent.IndexOf(res.Ev[i-1].ID), parent.IndexOf(res.Ev[i].ID)
		if b == a+1 && (b == 64 || i == 64) {
			return true
		}
	}
	return false
}

// TestCopyBits: the run copy under Restrict against its definition, at
// every alignment of a three-word vector.
func TestCopyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		src := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		n := 1 + rng.Intn(192)
		s, d := rng.Intn(193-n), rng.Intn(193-n)
		got, want := make([]uint64, 3), make([]uint64, 3)
		copyBits(got, d, src, s, n)
		for i := 0; i < n; i++ {
			if HasBit(src, s+i) {
				SetBit(want, d+i)
			}
		}
		if got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("copyBits(d=%d, s=%d, n=%d) of %x = %x, want %x", d, s, n, src, got, want)
		}
	}
}

// assertTopoInvariant checks the cached-order contract of r against
// ground truth: topoValid and topoCyclic must match the actual
// acyclicity of sb ∪ rf ∪ mo (decided by the closure oracle), a valid
// order must genuinely order the union, and topoNone is always
// allowed (the lazy states). ensureTopo from any state must land on
// the truth.
func assertTopoInvariant(t *testing.T, r *Rels, g *Graph) {
	t.Helper()
	union := r.Sb.Clone()
	union.OrWith(r.RfM)
	union.OrWith(r.MoM)
	acyclic := !union.HasCycle()
	switch r.topoState {
	case topoValid:
		if !acyclic {
			t.Fatalf("topoValid on a cyclic union\ngraph:\n%s", g.Render())
		}
		if !union.respectsOrder(r.topo) {
			t.Fatalf("cached order is not a topological order of the union\ngraph:\n%s", g.Render())
		}
	case topoCyclic:
		if acyclic {
			t.Fatalf("topoCyclic on an acyclic union\ngraph:\n%s", g.Render())
		}
	}
	r.ensureTopo()
	if acyclic != (r.topoState == topoValid) {
		t.Fatalf("ensureTopo landed on state %d, union acyclic=%v", r.topoState, acyclic)
	}
	if r.topoState == topoValid && !union.respectsOrder(r.topo) {
		t.Fatalf("derived order is not a topological order of the union")
	}
}

// TestResolveMatchesBuild is the correctness bar of the incremental
// ⊥-read resolution (Rels.Resolve, the AT resolvability hot path): on
// randomized histories ending in a blocked read, resolving it against
// each candidate write must produce exactly the matrices BuildRels
// derives from scratch, with the cached-order contract intact.
func TestResolveMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(2)
		var g *Graph
		randExtendHistory(t, rng, nThreads, nLocs, 10+rng.Intn(6), func(_ *Rels, gg *Graph, _ *Event) { g = gg })
		// Append a ⊥ read (sometimes a blocked update) to a random thread.
		tid := rng.Intn(nThreads)
		loc := Loc(rng.Intn(nLocs))
		e := &Event{
			ID:       EventID{Thread: tid, Index: len(g.Threads[tid])},
			Kind:     KRead,
			Mode:     []Mode{Rlx, Acq, SC}[rng.Intn(3)],
			Loc:      loc,
			AwaitSeq: 0,
		}
		if rng.Intn(3) == 0 {
			e.Kind = KUpdate
		}
		g.Append(e)
		g.SetRF(e.ID, BottomRF)
		prev := BuildRels(g)
		if rng.Intn(2) == 0 {
			prev.ensureTopo() // exercise both lazy and derived parents
		}
		for _, w := range g.Mo[loc] {
			// Mirror core.resolveWith: clone, swap the event, set rf.
			g2 := g.Clone()
			e2 := *e
			e2.RVal = g2.WriteVal(w)
			if e2.Kind == KUpdate {
				e2.Degraded = true
				e2.Val = 0
			}
			g2.ReplaceEvent(e.ID, &e2)
			g2.SetRF(e.ID, FromW(w))
			res := prev.Resolve(g2, &e2)
			assertSameRels(t, res, BuildRels(g2), g2, fmt.Sprintf("trial %d: resolving %v from %v", trial, e.ID, w))
			assertTopoInvariant(t, res, g2)
		}
	}
}

// TestExtendTopoEdgeCases pins the order-maintenance corners down with
// hand-built graphs: a duplicate edge (one neighbor that is both sb
// and mo predecessor), a forced back-edge whose rebuild stays acyclic,
// and a forced back-edge that makes the union genuinely cyclic.
func TestExtendTopoEdgeCases(t *testing.T) {
	t.Run("duplicate-edge", func(t *testing.T) {
		// T0: Wx(1); Wx(2) mo-adjacent — the second write's po
		// predecessor is also its mo predecessor.
		g := New(1, []Val{0}, []string{"x"})
		w1 := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(w1)
		g.InsertMo(0, w1.ID, 1)
		prev := BuildRels(g)
		prev.ensureTopo()
		w2 := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 2, AwaitSeq: -1}
		g.Append(w2)
		g.InsertMo(0, w2.ID, 2)
		before := AcyclicCountersNow()
		ext := prev.Extend(g, w2)
		if d := AcyclicCountersNow().Sub(before); d.OrderExtends != 1 {
			t.Fatalf("duplicate-edge append should extend the order in place: %+v", d)
		}
		assertTopoInvariant(t, ext, g)
	})
	t.Run("back-edge-reorder", func(t *testing.T) {
		// T0: Wx a. T1: Wy b. Then T0 appends Wy c mo-BEFORE b: c's po
		// predecessor a must precede c while c must precede b — a
		// constraint the parent's order may or may not satisfy, and the
		// re-derived order must.
		g := New(2, []Val{0, 0}, []string{"x", "y"})
		a := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(a)
		g.InsertMo(0, a.ID, 1)
		b := &Event{ID: EventID{1, 0}, Kind: KWrite, Mode: Rlx, Loc: 1, Val: 2, AwaitSeq: -1}
		g.Append(b)
		g.InsertMo(1, b.ID, 1)
		prev := BuildRels(g)
		prev.ensureTopo()
		c := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 1, Val: 3, AwaitSeq: -1}
		g.Append(c)
		g.InsertMo(1, c.ID, 1) // before b
		ext := prev.Extend(g, c)
		assertTopoInvariant(t, ext, g)
		if !ext.TopoOK() {
			t.Fatal("acyclic extension must end topoValid")
		}
	})
	t.Run("cyclic-union", func(t *testing.T) {
		// T0: Wx a1, Wx a2 (mo a1<a2). T1: Rx r reads a2, then Wx c
		// mo-BEFORE a1: c→a1→a2→r→c cycles through mo, rf and sb.
		g := New(2, []Val{0}, []string{"x"})
		a1 := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 1, AwaitSeq: -1}
		g.Append(a1)
		g.InsertMo(0, a1.ID, 1)
		a2 := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 2, AwaitSeq: -1}
		g.Append(a2)
		g.InsertMo(0, a2.ID, 2)
		r := &Event{ID: EventID{1, 0}, Kind: KRead, Mode: Rlx, Loc: 0, RVal: 2, AwaitSeq: -1}
		g.Append(r)
		g.SetRF(r.ID, FromW(a2.ID))
		prev := BuildRels(g)
		prev.ensureTopo()
		if !prev.TopoOK() {
			t.Fatal("setup union should be acyclic")
		}
		c := &Event{ID: EventID{1, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 3, AwaitSeq: -1}
		g.Append(c)
		g.InsertMo(0, c.ID, 1) // before a1
		ext := prev.Extend(g, c)
		assertTopoInvariant(t, ext, g)
		if !ext.TopoCyclic() {
			t.Fatal("mo-backdated write must make the union cyclic")
		}
		// And cyclicity is permanent: any further extension stays cyclic.
		f := &Event{ID: EventID{1, 2}, Kind: KFence, Mode: AcqRel, AwaitSeq: -1}
		g.Append(f)
		ext2 := ext.Extend(g, f)
		if !ext2.TopoCyclic() {
			t.Fatal("cyclic union must stay cyclic across extension")
		}
	})
}
