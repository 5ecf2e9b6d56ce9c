package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mkGraph builds a small two-thread graph used across the tests:
// T0: W(x,1); T1: R(x)=1 reading from T0.
func mkGraph() *Graph {
	g := New(2, []Val{0}, []string{"x"})
	w := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rel, Loc: 0, Val: 1, AwaitSeq: -1}
	g.Append(w)
	g.InsertMo(0, w.ID, 1)
	r := &Event{ID: EventID{1, 0}, Kind: KRead, Mode: Acq, Loc: 0, RVal: 1, AwaitSeq: -1}
	g.Append(r)
	g.SetRF(r.ID, FromW(w.ID))
	return g
}

func TestGraphBasics(t *testing.T) {
	g := mkGraph()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.NumEvents() != 2 {
		t.Fatalf("NumEvents = %d", g.NumEvents())
	}
	if got := g.FinalVal(0); got != 1 {
		t.Fatalf("FinalVal = %d", got)
	}
	if g.MoMax(0) != (EventID{0, 0}) {
		t.Fatalf("MoMax = %v", g.MoMax(0))
	}
	init := g.Event(EventID{InitThread, 0})
	if init == nil || init.Kind != KWrite || init.Val != 0 {
		t.Fatalf("bad init event: %v", init)
	}
	if !g.Has(EventID{0, 0}) || g.Has(EventID{0, 5}) || g.Has(EventID{7, 0}) {
		t.Fatal("Has is wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mkGraph()
	c := g.Clone()
	w2 := &Event{ID: EventID{0, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 2, AwaitSeq: -1}
	c.Append(w2)
	c.InsertMo(0, w2.ID, 2)
	if g.NumEvents() != 2 {
		t.Fatal("clone mutation leaked into original (events)")
	}
	if len(g.Mo[0]) != 2 {
		t.Fatal("clone mutation leaked into original (mo)")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() == c.Fingerprint() {
		t.Fatal("different graphs share a fingerprint")
	}
}

func TestInsertMoPositions(t *testing.T) {
	g := New(1, []Val{0}, []string{"x"})
	a := &Event{ID: EventID{0, 0}, Kind: KWrite, Loc: 0, Val: 1, AwaitSeq: -1}
	b := &Event{ID: EventID{0, 1}, Kind: KWrite, Loc: 0, Val: 2, AwaitSeq: -1}
	g.Append(a)
	g.InsertMo(0, a.ID, 1)
	g.Append(b)
	g.InsertMo(0, b.ID, 1) // before a
	if g.MoIndex(0, b.ID) != 1 || g.MoIndex(0, a.ID) != 2 {
		t.Fatalf("mo order wrong: %v", g.Mo[0])
	}
	if g.FinalVal(0) != 1 {
		t.Fatalf("mo-max value = %d, want 1", g.FinalVal(0))
	}
}

func TestPorfPrefix(t *testing.T) {
	g := mkGraph()
	r2 := &Event{ID: EventID{1, 1}, Kind: KWrite, Mode: Rlx, Loc: 0, Val: 9, AwaitSeq: -1}
	g.Append(r2)
	g.InsertMo(0, r2.ID, 2)
	porf := g.PorfPrefix(EventID{1, 1})
	// The prefix must contain the read before it (po) and, through rf,
	// the write of T0.
	for _, id := range []EventID{{1, 1}, {1, 0}, {0, 0}} {
		if !porf.Has(g.Event(id)) {
			t.Fatalf("porf prefix missing %v", id)
		}
	}
}

func TestRestrictTo(t *testing.T) {
	g := mkGraph()
	keep := NewEventSet(g.NextStamp)
	keep.Add(g.Event(EventID{0, 0}))
	g.RestrictTo(keep)
	if g.NumEvents() != 1 {
		t.Fatalf("restriction kept %d events", g.NumEvents())
	}
	if len(g.Mo[0]) != 2 { // init + the write
		t.Fatalf("mo not restricted: %v", g.Mo[0])
	}
	if len(g.rf[1]) != 0 {
		t.Fatal("dropped read kept its rf entry")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBottomReads(t *testing.T) {
	g := mkGraph()
	r2 := &Event{ID: EventID{1, 1}, Kind: KRead, Mode: Acq, Loc: 0, AwaitSeq: 0, AwaitIter: 1}
	g.Append(r2)
	g.SetRF(r2.ID, BottomRF)
	bots := g.BottomReads()
	if len(bots) != 1 || bots[0] != r2.ID {
		t.Fatalf("BottomReads = %v", bots)
	}
	if !strings.Contains(g.Render(), "⊥") {
		t.Fatal("render should show the missing rf edge")
	}
}

func TestRenderAndDOT(t *testing.T) {
	g := mkGraph()
	txt := g.Render()
	for _, needle := range []string{"init x = 0", "W^rel(x,1)", "R^acq(x,1)", "mo(x)"} {
		if !strings.Contains(txt, needle) {
			t.Errorf("render missing %q in:\n%s", needle, txt)
		}
	}
	dot := g.DOT("test")
	for _, needle := range []string{"digraph", "rf", "cluster_t0", "Winit(x,0)"} {
		if !strings.Contains(dot, needle) {
			t.Errorf("DOT missing %q", needle)
		}
	}
}

func TestEventStrings(t *testing.T) {
	cases := map[string]*Event{
		"W^rel T0.0 (loc0,1)":     {ID: EventID{0, 0}, Kind: KWrite, Mode: Rel, Val: 1},
		"R^acq T1.2 (loc3,7)":     {ID: EventID{1, 2}, Kind: KRead, Mode: Acq, Loc: 3, RVal: 7},
		"U^sc T0.1 (loc0,0->1)":   {ID: EventID{0, 1}, Kind: KUpdate, Mode: SC, RVal: 0, Val: 1},
		"U^rlx T0.1 (loc0,5->ro)": {ID: EventID{0, 1}, Kind: KUpdate, Mode: Rlx, RVal: 5, Degraded: true},
		"F^sc T2.0":               {ID: EventID{2, 0}, Kind: KFence, Mode: SC},
		"ERROR T0.9 (boom)":       {ID: EventID{0, 9}, Kind: KError, Msg: "boom"},
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestModePredicates(t *testing.T) {
	if !Acq.HasAcq() || !AcqRel.HasAcq() || !SC.HasAcq() || Rel.HasAcq() || Rlx.HasAcq() {
		t.Error("HasAcq wrong")
	}
	if !Rel.HasRel() || !AcqRel.HasRel() || !SC.HasRel() || Acq.HasRel() || Rlx.HasRel() {
		t.Error("HasRel wrong")
	}
	if !SC.IsSC() || AcqRel.IsSC() {
		t.Error("IsSC wrong")
	}
	names := map[Mode]string{ModeNone: "none", Rlx: "rlx", Acq: "acq", Rel: "rel", AcqRel: "acqrel", SC: "sc"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

// TestBitMatProperties checks the transitive-closure and cycle
// machinery with testing/quick on random small relations.
func TestBitMatProperties(t *testing.T) {
	closureIsTransitive := func(edges []uint16, nRaw uint8) bool {
		n := int(nRaw%14) + 2
		m := NewBitMat(n)
		for _, e := range edges {
			m.Set(int(e)%n, int(e>>4)%n)
		}
		c := m.Clone()
		c.TransClose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !c.Get(i, j) {
					continue
				}
				for k := 0; k < n; k++ {
					if c.Get(j, k) && !c.Get(i, k) {
						return false
					}
				}
			}
		}
		// Closure contains the original.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Get(i, j) && !c.Get(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(closureIsTransitive, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	cycleMatchesClosureDiagonal := func(edges []uint16, nRaw uint8) bool {
		n := int(nRaw%14) + 2
		m := NewBitMat(n)
		for _, e := range edges {
			m.Set(int(e)%n, int(e>>4)%n)
		}
		c := m.Clone()
		c.TransClose()
		diag := false
		for i := 0; i < n; i++ {
			if c.Get(i, i) {
				diag = true
				break
			}
		}
		return m.HasCycle() == diag
	}
	if err := quick.Check(cycleMatchesClosureDiagonal, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitMatCompose(t *testing.T) {
	m := NewBitMat(3)
	m.Set(0, 1)
	o := NewBitMat(3)
	o.Set(1, 2)
	r := NewBitMat(3)
	m.ComposeInto(o, r)
	if !r.Get(0, 2) || r.Get(0, 1) || r.Get(1, 2) {
		t.Fatal("composition wrong")
	}
}

// TestFingerprintProperty: graphs that differ in rf must differ in
// fingerprint; clones must not.
func TestFingerprintProperty(t *testing.T) {
	g := New(2, []Val{0}, []string{"x"})
	w := &Event{ID: EventID{0, 0}, Kind: KWrite, Loc: 0, Val: 1, AwaitSeq: -1}
	g.Append(w)
	g.InsertMo(0, w.ID, 1)
	r := &Event{ID: EventID{1, 0}, Kind: KRead, Loc: 0, RVal: 1, AwaitSeq: -1}
	g.Append(r)
	g.SetRF(r.ID, FromW(w.ID))

	c := g.Clone()
	if g.Fingerprint() != c.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	c.SetRF(r.ID, BottomRF)
	if g.Fingerprint() == c.Fingerprint() {
		t.Fatal("rf change did not change the fingerprint")
	}
}

// TestRowProducts: the vector×matrix primitives under mm's SC axiom,
// against their bit-by-bit definitions on random relations.
func TestRowProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randExtendHistory(t, rng, 3, 2, 90, func(r *Rels, _ *Graph, _ *Event) {
		sel := make([]uint64, r.Hb.Words())
		for i := 0; i < r.N; i++ {
			if rng.Intn(3) == 0 {
				SetBit(sel, i)
			}
		}
		access := func(i int) bool { return r.Ev[i].Kind != KFence && r.Ev[i].Kind != KError }
		for name, c := range map[string]struct {
			or   func(dst []uint64)
			pair func(i, j int) bool
		}{
			"OrRows":      {func(d []uint64) { r.Hb.OrRows(d, sel) }, r.Hb.Get},
			"OrRowsMinus": {func(d []uint64) { r.Sb.OrRowsMinus(r.SbLoc, d, sel) }, func(i, j int) bool { return r.Sb.Get(i, j) && !r.SbLoc.Get(i, j) }},
			"OrHbLoc": {func(d []uint64) { r.OrHbLoc(d, sel) }, func(i, j int) bool {
				return r.Hb.Get(i, j) && access(i) && access(j) && r.Ev[i].Loc == r.Ev[j].Loc
			}},
		} {
			got := make([]uint64, len(sel))
			c.or(got)
			for j := 0; j < r.N; j++ {
				want := false
				for i := 0; i < r.N; i++ {
					want = want || HasBit(sel, i) && c.pair(i, j)
				}
				if HasBit(got, j) != want {
					t.Fatalf("%s over %d events: bit %d is %v, want %v", name, r.N, j, !want, want)
				}
			}
		}
	})
}
