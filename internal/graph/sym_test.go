package graph

import (
	"testing"
)

// symTestSpec is a three-thread fully-symmetric spec over four
// locations: loc 0 is an unowned "lock" whose values embed tid+1
// (sentinel 0 = free), locs 1..3 are the "node" family replicas owned
// by threads 0..2.
func symTestSpec(t *testing.T) *SymSpec {
	t.Helper()
	s := &SymSpec{
		N:         3,
		Groups:    [][]int{{0, 1, 2}},
		LocOwner:  []int32{-1, 0, 1, 2},
		LocFam:    []int32{-1, 0, 0, 0},
		FamLoc:    [][]int32{{1, 2, 3}},
		ValTagged: []bool{true, false, false, false},
		ValShift:  []uint8{0, 0, 0, 0},
		ValBias:   []int64{1, 0, 0, 0},
	}
	if !s.Finalize() {
		t.Fatal("test spec did not finalize")
	}
	return s
}

// symTestGraph builds a structurally asymmetric graph over the spec's
// program shape — the three threads are at different points of "write
// my node, then swap myself into the lock", so every one of the 3!
// relabelings is a distinct concrete graph.
func symTestGraph() *Graph {
	g := New(3, []Val{0, 0, 0, 0}, []string{"lock", "node0", "node1", "node2"})
	app := func(e *Event) *Event { g.Append(e); return e }

	n0 := app(&Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rel, Loc: 1, Val: 7, AwaitSeq: -1})
	g.InsertMo(1, n0.ID, 1)
	n1 := app(&Event{ID: EventID{1, 0}, Kind: KWrite, Mode: Rel, Loc: 2, Val: 7, AwaitSeq: -1})
	g.InsertMo(2, n1.ID, 1)
	u0 := app(&Event{ID: EventID{0, 1}, Kind: KUpdate, Mode: AcqRel, Loc: 0, Val: 1, RVal: 0, AwaitSeq: -1})
	g.SetRF(u0.ID, FromW(EventID{Thread: InitThread, Index: 0}))
	g.InsertMo(0, u0.ID, 1)
	u1 := app(&Event{ID: EventID{1, 1}, Kind: KUpdate, Mode: AcqRel, Loc: 0, Val: 2, RVal: 1, AwaitSeq: -1})
	g.SetRF(u1.ID, FromW(u0.ID))
	g.InsertMo(0, u1.ID, 2)
	n2 := app(&Event{ID: EventID{2, 0}, Kind: KWrite, Mode: Rel, Loc: 3, Val: 7, AwaitSeq: -1})
	g.InsertMo(3, n2.ID, 1)
	r2 := app(&Event{ID: EventID{2, 1}, Kind: KRead, Mode: Acq, Loc: 0, RVal: 2, AwaitSeq: -1})
	g.SetRF(r2.ID, FromW(u1.ID))
	return g
}

func invOf(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for t, p := range perm {
		inv[p] = int32(t)
	}
	return inv
}

// TestApplyPermMatchesVirtualFingerprint: fingerprintUnderPerm is the
// one key fold, and Fingerprint128 is that fold under the identity, so
// the materialized relabeling keyed the plain way and the virtual
// relabeling keyed by perm must agree, and the relabeled graph must be
// a well-formed graph — this is the contract that lets Canonicalize
// search keys without building graphs and counterexample reporting
// build the one graph that won.
func TestApplyPermMatchesVirtualFingerprint(t *testing.T) {
	s := symTestSpec(t)
	g := symTestGraph()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, perm := range s.AllPerms() {
		rg := s.ApplyPerm(g, perm)
		if err := rg.CheckInvariants(); err != nil {
			t.Fatalf("perm %v: relabeled graph is malformed: %v", perm, err)
		}
		if got, want := rg.Fingerprint128(), s.fingerprintUnderPerm(g, perm, invOf(perm)); got != want {
			t.Fatalf("perm %v: ApplyPerm fingerprint %x != fingerprintUnderPerm %x", perm, got, want)
		}
		if IsIdentityPerm(perm) && rg != g {
			t.Fatal("identity ApplyPerm must return the graph itself")
		}
	}
}

// TestCanonicalizeKeyMatchesPerm: the returned key is the fingerprint
// of the graph relabeled by the returned permutation (the key the
// visited set stores is the key of a graph the explorer could actually
// present), and it is one of the orbit's member fingerprints. Note the
// key is NOT required to be the orbit-wide minimum: the signature fast
// path picks its representative by equivariant sort order, and
// minimization only arbitrates within refinement tie classes.
func TestCanonicalizeKeyMatchesPerm(t *testing.T) {
	s := symTestSpec(t)
	g := symTestGraph()
	var sc SymScratch
	key, perm, _, _ := s.Canonicalize(g, &sc, false, NoEvent, NoEvent)
	if got := s.ApplyPerm(g, perm).Fingerprint128(); got != key {
		t.Fatalf("perm %v rebuilds to %x, want the canonical key %x", perm, got, key)
	}
	found := false
	for _, p := range s.AllPerms() {
		if s.fingerprintUnderPerm(g, p, invOf(p)) == key {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("canonical key %x is not any orbit member's fingerprint", key)
	}
}

// TestCanonicalizeCollapsesOrbit: every relabeling of the graph — and
// of its forced-rf pair — canonicalizes to the same key. This is the
// property the visited set relies on to explore one representative per
// orbit.
func TestCanonicalizeCollapsesOrbit(t *testing.T) {
	s := symTestSpec(t)
	g := symTestGraph()
	var sc SymScratch
	key, _, _, _ := s.Canonicalize(g, &sc, false, NoEvent, NoEvent)
	fR, fW := EventID{Thread: 2, Index: 1}, EventID{Thread: 1, Index: 1}
	fkey, _, _, _ := s.Canonicalize(g, &sc, true, fR, fW)
	if fkey == key {
		t.Fatal("folding a forced pair did not change the key")
	}
	for _, p := range s.AllPerms() {
		rg := s.ApplyPerm(g, p)
		var sc2 SymScratch
		k, _, _, _ := s.Canonicalize(rg, &sc2, false, NoEvent, NoEvent)
		if k != key {
			t.Fatalf("perm %v: relabeled graph canonicalizes to %x, want %x", p, k, key)
		}
		fk, _, _, _ := s.Canonicalize(rg, &sc2, true, s.MapID(p, fR), s.MapID(p, fW))
		if fk != fkey {
			t.Fatalf("perm %v: relabeled forced state canonicalizes to %x, want %x", p, fk, fkey)
		}
	}
}

// TestCanonicalizeFastPath: distinct per-thread signatures resolve the
// permutation with a single fingerprint evaluation; identical rows form
// a tie class that refinement enumerates exhaustively.
func TestCanonicalizeFastPath(t *testing.T) {
	s := symTestSpec(t)
	var sc SymScratch

	if _, _, fast, tried := s.Canonicalize(symTestGraph(), &sc, false, NoEvent, NoEvent); !fast || tried != 1 {
		t.Fatalf("structurally distinct rows: fast=%v tried=%d, want the one-shot fast path", fast, tried)
	}

	// Threads 0 and 1 each wrote only their own replica: their signatures
	// are identical by construction (sigLocSelf folds the family, not the
	// member), so they form a 2-tie; thread 2's empty row stays distinct.
	tie := New(3, []Val{0, 0, 0, 0}, []string{"lock", "node0", "node1", "node2"})
	a := &Event{ID: EventID{0, 0}, Kind: KWrite, Mode: Rel, Loc: 1, Val: 7, AwaitSeq: -1}
	tie.Append(a)
	tie.InsertMo(1, a.ID, 1)
	b := &Event{ID: EventID{1, 0}, Kind: KWrite, Mode: Rel, Loc: 2, Val: 7, AwaitSeq: -1}
	tie.Append(b)
	tie.InsertMo(2, b.ID, 1)
	if _, _, fast, tried := s.Canonicalize(tie, &sc, false, NoEvent, NoEvent); fast || tried != 2 {
		t.Fatalf("tied rows: fast=%v tried=%d, want refinement over the 2-class", fast, tried)
	}
}

// TestMapVal: the tid field rewrites under the permutation, the
// sentinel and out-of-range encodings are left alone, and bits below
// the field survive.
func TestMapVal(t *testing.T) {
	s := &SymSpec{
		N:         2,
		Groups:    [][]int{{0, 1}},
		LocOwner:  []int32{-1},
		LocFam:    []int32{-1},
		ValTagged: []bool{true},
		ValShift:  []uint8{16},
		ValBias:   []int64{1},
	}
	if !s.Finalize() {
		t.Fatal("spec did not finalize")
	}
	swap := []int32{1, 0}
	cases := []struct{ in, want uint64 }{
		{0, 0},                           // sentinel: field -1, untouched
		{1 << 16, 2 << 16},               // tid 0 -> tid 1
		{2<<16 | 0xabcd, 1<<16 | 0xabcd}, // tid 1 -> tid 0, low bits kept
		{9 << 16, 9 << 16},               // field 8: out of range, untouched
	}
	for _, c := range cases {
		if got := s.MapVal(swap, 0, c.in); got != c.want {
			t.Errorf("MapVal(swap, %#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
