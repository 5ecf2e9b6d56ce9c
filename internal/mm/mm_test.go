package mm_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
)

// gb is a tiny builder for hand-crafted execution graphs.
type gb struct{ g *graph.Graph }

func newGB(nthreads, nlocs int) *gb {
	inits := make([]graph.Val, nlocs)
	names := make([]string, nlocs)
	return &gb{g: graph.New(nthreads, inits, names)}
}

func (b *gb) write(t int, loc graph.Loc, v graph.Val, m graph.Mode, moPos int) graph.EventID {
	e := &graph.Event{
		ID:   graph.EventID{Thread: t, Index: len(b.g.Threads[t])},
		Kind: graph.KWrite, Mode: m, Loc: loc, Val: v, AwaitSeq: -1,
	}
	b.g.Append(e)
	b.g.InsertMo(loc, e.ID, moPos)
	return e.ID
}

func (b *gb) read(t int, loc graph.Loc, m graph.Mode, from graph.EventID) graph.EventID {
	e := &graph.Event{
		ID:   graph.EventID{Thread: t, Index: len(b.g.Threads[t])},
		Kind: graph.KRead, Mode: m, Loc: loc, AwaitSeq: -1,
	}
	e.RVal = b.g.WriteVal(from)
	b.g.Append(e)
	b.g.SetRF(e.ID, graph.FromW(from))
	return e.ID
}

func (b *gb) update(t int, loc graph.Loc, newV graph.Val, m graph.Mode, from graph.EventID, moPos int) graph.EventID {
	e := &graph.Event{
		ID:   graph.EventID{Thread: t, Index: len(b.g.Threads[t])},
		Kind: graph.KUpdate, Mode: m, Loc: loc, Val: newV, AwaitSeq: -1,
	}
	e.RVal = b.g.WriteVal(from)
	b.g.Append(e)
	b.g.SetRF(e.ID, graph.FromW(from))
	b.g.InsertMo(loc, e.ID, moPos)
	return e.ID
}

func (b *gb) fence(t int, m graph.Mode) {
	e := &graph.Event{
		ID:   graph.EventID{Thread: t, Index: len(b.g.Threads[t])},
		Kind: graph.KFence, Mode: m, AwaitSeq: -1,
	}
	b.g.Append(e)
}

func init0(loc graph.Loc) graph.EventID {
	return graph.EventID{Thread: graph.InitThread, Index: int(loc)}
}

// sbGraph builds the store-buffering outcome: both threads write their
// own flag and read 0 (init) from the other's.
func sbGraph(w, r, f graph.Mode) *graph.Graph {
	b := newGB(2, 2)
	b.write(0, 0, 1, w, 1)
	if f != graph.ModeNone {
		b.fence(0, f)
	}
	b.read(0, 1, r, init0(1))
	b.write(1, 1, 1, w, 1)
	if f != graph.ModeNone {
		b.fence(1, f)
	}
	b.read(1, 0, r, init0(0))
	return b.g
}

func TestSBDirect(t *testing.T) {
	relaxed := sbGraph(graph.Rlx, graph.Rlx, graph.ModeNone)
	if mm.SC.Consistent(relaxed) {
		t.Error("SC must reject the SB outcome")
	}
	if !mm.TSO.Consistent(relaxed) {
		t.Error("TSO must accept the relaxed SB outcome")
	}
	if !mm.WMM.Consistent(relaxed) {
		t.Error("WMM must accept the relaxed SB outcome")
	}

	scAcc := sbGraph(graph.SC, graph.SC, graph.ModeNone)
	if mm.WMM.Consistent(scAcc) {
		t.Error("WMM must reject SB with SC accesses (psc)")
	}

	fenced := sbGraph(graph.Rlx, graph.Rlx, graph.SC)
	if mm.WMM.Consistent(fenced) {
		t.Error("WMM must reject SB across SC fences (psc_f)")
	}
	if mm.TSO.Consistent(fenced) {
		t.Error("TSO must reject SB across mfence")
	}
}

// mpGraph builds the message-passing stale-read outcome.
func mpGraph(w, r graph.Mode) *graph.Graph {
	b := newGB(2, 2) // loc0 = data, loc1 = flag
	b.write(0, 0, 1, graph.Rlx, 1)
	b.write(0, 1, 1, w, 1)
	fl := graph.EventID{Thread: 0, Index: 1}
	b.read(1, 1, r, fl)               // sees the flag
	b.read(1, 0, graph.Rlx, init0(0)) // but stale data
	return b.g
}

func TestMPDirect(t *testing.T) {
	if !mm.WMM.Consistent(mpGraph(graph.Rlx, graph.Rlx)) {
		t.Error("WMM must accept the relaxed MP outcome")
	}
	if mm.WMM.Consistent(mpGraph(graph.Rel, graph.Acq)) {
		t.Error("WMM must reject the MP outcome under release/acquire (sw ⊆ hb, coherence)")
	}
	if mm.TSO.Consistent(mpGraph(graph.Rlx, graph.Rlx)) {
		t.Error("TSO must reject the MP outcome")
	}
	if mm.SC.Consistent(mpGraph(graph.Rlx, graph.Rlx)) {
		t.Error("SC must reject the MP outcome")
	}
}

// TestReleaseSequenceThroughRMW: an update chained between the release
// write and the acquire read must preserve synchronization (C++20
// release sequences).
func TestReleaseSequenceThroughRMW(t *testing.T) {
	b := newGB(3, 2) // loc0 data, loc1 flag
	b.write(0, 0, 1, graph.Rlx, 1)
	rel := b.write(0, 1, 1, graph.Rel, 1)
	// T1 atomically bumps the flag (relaxed RMW reading the release).
	u := b.update(1, 1, 2, graph.Rlx, rel, 2)
	// T2 acquires via the RMW's write and reads the data stale: must be
	// inconsistent, because u is in rel's release sequence.
	b.read(2, 1, graph.Acq, u)
	b.read(2, 0, graph.Rlx, init0(0))
	if mm.WMM.Consistent(b.g) {
		t.Error("WMM must carry synchronization through the RMW release sequence")
	}
}

// TestAtomicityDirect: two updates reading from the same write violate
// atomicity on every model.
func TestAtomicityDirect(t *testing.T) {
	b := newGB(2, 1)
	u0 := b.update(0, 0, 1, graph.Rlx, init0(0), 1)
	_ = u0
	// Second update also reads init but is placed mo-last: a write
	// (u0) intervenes between its source and itself.
	b.update(1, 0, 1, graph.Rlx, init0(0), 2)
	for _, m := range mm.All() {
		if m.Consistent(b.g) {
			t.Errorf("%s must reject overlapping RMWs (atomicity)", m.Name())
		}
	}
}

// TestCoherenceCoRR: reading new-then-old from one location violates
// coherence everywhere.
func TestCoherenceCoRR(t *testing.T) {
	b := newGB(2, 1)
	w := b.write(0, 0, 1, graph.Rlx, 1)
	b.read(1, 0, graph.Rlx, w)
	b.read(1, 0, graph.Rlx, init0(0)) // older write after newer: fr;mo cycle
	for _, m := range mm.All() {
		if m.Consistent(b.g) {
			t.Errorf("%s must reject CoRR", m.Name())
		}
	}
}

// TestFenceSynchronization: release fence before a relaxed store +
// acquire fence after a relaxed load synchronize (RC11 fence sw).
func TestFenceSynchronization(t *testing.T) {
	b := newGB(2, 2)
	b.write(0, 0, 1, graph.Rlx, 1)
	b.fence(0, graph.Rel)
	flag := b.write(0, 1, 1, graph.Rlx, 1)
	b.read(1, 1, graph.Rlx, flag)
	b.fence(1, graph.Acq)
	b.read(1, 0, graph.Rlx, init0(0)) // stale data: must be forbidden
	if mm.WMM.Consistent(b.g) {
		t.Error("WMM must synchronize through rel/acq fences")
	}
}

// TestByName covers the registry.
func TestByName(t *testing.T) {
	for _, name := range []string{"sc", "tso", "wmm", "ra"} {
		if m := mm.ByName(name); m == nil || m.Name() != name {
			t.Errorf("ByName(%q) broken", name)
		}
	}
	if mm.ByName("bogus") != nil {
		t.Error("ByName must return nil for unknown models")
	}
}

// TestByNameRoundTrip: every registered model — the correctness models
// of All() and the ablation models — round-trips through its name to
// the identical instance, and names are unique across the registry.
func TestByNameRoundTrip(t *testing.T) {
	all := append(mm.All(), mm.Ablations()...)
	seen := map[string]bool{}
	for _, m := range all {
		name := m.Name()
		if seen[name] {
			t.Errorf("duplicate model name %q in the registry", name)
		}
		seen[name] = true
		if got := mm.ByName(name); got != m {
			t.Errorf("ByName(%q) = %#v, want the registered instance %#v", name, got, m)
		}
	}
	// RA is an ablation, not a correctness model: All() must not grow it
	// silently, because the corpus asserts all-model properties that RA
	// deliberately breaks (see the All doc comment).
	for _, m := range mm.All() {
		if m.Name() == "ra" {
			t.Error("ra must not be part of All(); it belongs to Ablations()")
		}
	}
	if len(mm.Ablations()) == 0 || mm.Ablations()[0] != mm.RA {
		t.Error("Ablations() must expose RA")
	}
}

// TestMonotoneRemoval: removing the last event of a thread from a
// consistent graph keeps it consistent (the pruning-soundness property
// AMC relies on).
func TestMonotoneRemoval(t *testing.T) {
	g := mpGraph(graph.Rel, graph.Acq)
	// Make it consistent first: let the data read see the data write.
	g.SetRF(graph.EventID{Thread: 1, Index: 1}, graph.FromW(graph.EventID{Thread: 0, Index: 0}))
	g.Threads[1][1].RVal = 1
	if !mm.WMM.Consistent(g) {
		t.Fatal("setup graph should be consistent")
	}
	keep := graph.NewEventSet(g.NextStamp)
	for _, id := range []graph.EventID{
		{Thread: 0, Index: 0},
		{Thread: 0, Index: 1},
		{Thread: 1, Index: 0},
	} {
		keep.Add(g.Event(id))
	}
	g.RestrictTo(keep)
	for _, m := range mm.All() {
		if !m.Consistent(g) {
			t.Errorf("%s lost consistency after event removal", m.Name())
		}
	}
}

// pscAcyclicRef is the SC axiom as package mm decided it before the
// row-vector kernel: psc built bit by bit from materialized scb and
// hb;eco;hb matrices. It is that function moved here unedited, the
// reference the kernel is tested against.
//
// pscAcyclicRef computes the RC11 partial-SC relation and reports whether
// it is ACYCLIC (note: true means the axiom holds). Events with SC
// mode and SC fences participate. All pooled scratch is released on
// every return path (deferred), and the expensive construction is
// gated twice: no scratch is allocated until at least two SC
// participants exist, and the final cycle pass is skipped when the psc
// union came out empty.
func pscAcyclicRef(r *graph.Rels) bool {
	n := r.N
	// Quick exit before any scratch is taken: fewer than two SC
	// participants can never form a psc cycle.
	scAcc, scF := 0, 0
	for i := 0; i < n; i++ {
		if r.IsSCFence(i) {
			scF++
		} else if r.IsSCEvent(i) {
			scAcc++
		}
	}
	if scAcc+scF < 2 {
		return true
	}

	hbq := r.Hb // hb? as hb with identity handled inline (read-only here)
	// sbNeqLoc = sb \ sbloc.
	sbNeq := graph.NewBitMatPooled(n)
	defer sbNeq.Release()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Sb.Get(i, j) && !r.SbLoc.Get(i, j) {
				sbNeq.Set(i, j)
			}
		}
	}
	// hbLoc = hb ∩ same-location accesses.
	hbLoc := graph.NewBitMatPooled(n)
	defer hbLoc.Release()
	for i := 0; i < n; i++ {
		ei := r.Ev[i]
		if ei.Kind == graph.KFence || ei.Kind == graph.KError {
			continue
		}
		for j := 0; j < n; j++ {
			ej := r.Ev[j]
			if ej.Kind == graph.KFence || ej.Kind == graph.KError {
				continue
			}
			if ei.Loc == ej.Loc && r.Hb.Get(i, j) {
				hbLoc.Set(i, j)
			}
		}
	}
	// scb = sb ∪ sbNeq;hb;sbNeq ∪ hbLoc ∪ mo ∪ fr.
	scb := r.Sb.ClonePooled()
	defer scb.Release()
	mid := graph.NewBitMatPooled(n)
	defer mid.Release()
	tmp := graph.NewBitMatPooled(n)
	defer tmp.Release()
	sbNeq.ComposeInto(hbq, tmp)
	tmp.ComposeInto(sbNeq, mid)
	scb.OrWith(mid)
	scb.OrWith(hbLoc)
	scb.OrWith(r.MoM)
	scb.OrWith(r.FrM)

	isSCAccess := func(i int) bool { return r.IsSCEvent(i) && r.Ev[i].Kind != graph.KFence }
	isSCF := func(i int) bool { return r.IsSCFence(i) }

	// left(i) holds the SC anchors from which a psc_base edge can start
	// when the scb path starts at i: i itself if an SC access, and any SC
	// fence f with f hb? i.
	psc := graph.NewBitMatPooled(n)
	defer psc.Release()
	empty := true
	addEdges := func(from, to []int) {
		for _, a := range from {
			for _, b := range to {
				psc.Set(a, b)
				empty = false
			}
		}
	}
	lefts := make([][]int, n)
	rights := make([][]int, n)
	for i := 0; i < n; i++ {
		if isSCAccess(i) {
			lefts[i] = append(lefts[i], i)
			rights[i] = append(rights[i], i)
		}
		if scF == 0 {
			continue // no SC fences: anchors are the SC accesses alone
		}
		for f := 0; f < n; f++ {
			if !isSCF(f) {
				continue
			}
			if f == i || hbq.Get(f, i) {
				lefts[i] = append(lefts[i], f)
			}
			if f == i || hbq.Get(i, f) {
				rights[i] = append(rights[i], f)
			}
		}
	}
	for i := 0; i < n; i++ {
		if len(lefts[i]) == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if scb.Get(i, j) && len(rights[j]) > 0 {
				addEdges(lefts[i], rights[j])
			}
		}
	}
	// psc_f = [Fsc] ; (hb ∪ hb;eco;hb) ; [Fsc] — needs two SC fences,
	// so the hb;eco;hb composition scratch is not even allocated below
	// that.
	if scF >= 2 {
		hbEcoHb := graph.NewBitMatPooled(n)
		defer hbEcoHb.Release()
		r.Hb.ComposeInto(r.Eco, tmp)
		tmp.ComposeInto(r.Hb, hbEcoHb)
		for i := 0; i < n; i++ {
			if !isSCF(i) {
				continue
			}
			for j := 0; j < n; j++ {
				if !isSCF(j) || i == j {
					continue
				}
				if r.Hb.Get(i, j) || hbEcoHb.Get(i, j) {
					psc.Set(i, j)
					empty = false
				}
			}
		}
	}
	if empty {
		return true // no psc edge at all: trivially acyclic
	}
	return psc.AcyclicSeeded(r.TopoOrder())
}
