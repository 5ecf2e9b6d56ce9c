package graph

import (
	"bytes"
	"encoding/binary"
	"math"
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

// TestRFCellRoundTrip: the rf rows hold 8-byte cells, and every reader
// goes through one accessor. Each kind of entry — a thread's write, an
// init write, ⊥, "no entry", and the largest thread and index a cell can
// name — must come back from SetRF/RfOf, from the codec, and to the two
// hashes that fold rf sources (Fingerprint128, the symmetry signature) as
// the RF that went in; a source that does not fit is refused, by a panic
// where a caller hands it over and by an error where a file does.
func TestRFCellRoundTrip(t *testing.T) {
	const big = math.MaxInt32
	for _, rf := range []RF{
		FromW(EventID{Thread: 2, Index: 5}),
		FromW(EventID{Thread: InitThread, Index: 3}),
		FromW(EventID{Thread: InitThread, Index: big}),
		FromW(EventID{Thread: big, Index: big}),
		BottomRF,
		noRF,
	} {
		if got := cellOf(rf).rf(); got != rf {
			t.Errorf("cell of %+v reads back %+v", rf, got)
		}
	}
	for _, bad := range []EventID{{big + 1, 0}, {0, big + 1}, {0, -1}, {-2, 0}, {-3, 0}, {math.MinInt32 - 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rf source %v was packed into a cell", bad)
				}
			}()
			cellOf(FromW(bad))
		}()
	}

	// A graph holding one of each: T0 writes x; T1 reads it, reads the
	// init of y, fences (no entry) and reads ⊥.
	g := New(2, []Val{0, 0}, []string{"x", "y"})
	w := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rel, Loc: 0, Val: 1, AwaitSeq: -1}
	g.Append(w)
	g.InsertMo(0, w.ID, 1)
	want := []RF{FromW(w.ID), FromW(EventID{Thread: InitThread, Index: 1}), noRF, BottomRF}
	for i, e := range []*Event{
		{Kind: KRead, Mode: Acq, Loc: 0, RVal: 1, AwaitSeq: -1},
		{Kind: KRead, Mode: Rlx, Loc: 1, AwaitSeq: -1},
		{Kind: KFence, Mode: SC, AwaitSeq: -1},
		{Kind: KRead, Mode: Acq, Loc: 0, AwaitSeq: 0},
	} {
		e.ID = EventID{Thread: 1, Index: i}
		g.Append(e)
		if got := g.RfOf(e.ID); got != noRF {
			t.Fatalf("%v: fresh entry is %+v, want the no-entry sentinel", e.ID, got)
		}
		if e.IsReadLike() {
			g.SetRF(e.ID, want[i])
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	enc := AppendGraph(nil, g)
	dec, _, err := DecodeGraph(enc)
	if err != nil {
		t.Fatal(err)
	}
	spec := &SymSpec{N: 2, Groups: [][]int{{0, 1}}, LocOwner: []int32{-1, -1}, LocFam: []int32{-1, -1},
		ValTagged: []bool{false, false}, ValShift: []uint8{0, 0}, ValBias: []int64{0, 0}}
	if !spec.Finalize() {
		t.Fatal("test spec did not finalize")
	}
	for i, rf := range want {
		id := EventID{Thread: 1, Index: i}
		if g.RfOf(id) != rf || dec.RfOf(id) != rf {
			t.Errorf("%v: rf %+v set, %+v read, %+v decoded", id, rf, g.RfOf(id), dec.RfOf(id))
		}
	}
	if !bytes.Equal(AppendGraph(nil, dec), enc) {
		t.Error("re-encoding the decoded graph changed the bytes")
	}
	if g.Fingerprint128() != dec.Fingerprint128() || g.Fingerprint() != dec.Fingerprint() {
		t.Error("fingerprints differ across the codec")
	}
	if spec.signature(g, 1) != spec.signature(dec, 1) || spec.signature(g, 1) == spec.signature(g, 0) {
		t.Error("symmetry signature of the reading thread differs across the codec, or does not see its reads")
	}
	// Each rf entry reaches both hashes: changing one changes them.
	for i, rf := range want {
		if rf == noRF {
			continue
		}
		g2 := g.Clone()
		alt := BottomRF
		if rf == alt {
			alt = FromW(w.ID)
		}
		g2.SetRF(EventID{Thread: 1, Index: i}, alt)
		if g2.Fingerprint128() == g.Fingerprint128() || spec.signature(g2, 1) == spec.signature(g, 1) {
			t.Errorf("entry %d: changing %+v to %+v leaves a hash unchanged", i, rf, alt)
		}
		if g.RfOf(EventID{Thread: 1, Index: i}) != rf {
			t.Errorf("entry %d: SetRF on a clone wrote through to its parent", i)
		}
	}

	// A file naming an rf source outside a cell's range is refused, not
	// wrapped around: patch T1.0's source thread (varint 0 → a 5-byte one).
	g3 := New(1, []Val{0}, []string{"x"})
	r := &Event{ID: EventID{0, 0}, Kind: KRead, Mode: Acq, Loc: 0, AwaitSeq: -1}
	g3.Append(r)
	g3.SetRF(r.ID, FromW(EventID{Thread: InitThread, Index: 0}))
	good := AppendGraph(nil, g3)
	at := bytes.LastIndex(good, []byte{0x00, 0x01, 0x00}) // not-⊥, thread -1 (zigzag 1), index 0
	if _, _, err := DecodeGraph(good); err != nil || at < 0 {
		t.Fatalf("the unpatched encoding must decode (%v) and hold the source at a known place (%d)", err, at)
	}
	for _, src := range []int64{big + 1, math.MinInt32 - 1, -3} {
		patched := append([]byte(nil), good[:at+1]...)
		patched = binary.AppendVarint(patched, src)
		patched = append(patched, good[at+2:]...)
		if _, _, err := DecodeGraph(patched); err == nil {
			t.Errorf("an encoded rf source of thread %d decoded", src)
		}
	}
}
