package graph

import "sort"

// Thread-symmetry reduction. Lock clients are permutation-symmetric:
// every client thread runs the identical program, so up to t! of the
// graphs the explorer visits are mere relabelings of each other. A
// SymSpec describes which threads are interchangeable and how the
// program's state is tagged by thread identity (a scalarset in the
// Murphi sense): per-thread replica locations ("owned" members of a
// location family, e.g. mcs.next.0/1/2) and values that embed a thread
// id (e.g. an MCS tail holding tid+1, or a qspinlock tail packing
// (tid+1)<<16). Relabeling thread t to π(t) then relabels the whole
// graph: thread rows move, owned locations follow their owner, and
// tid-carrying values are rewritten — τ_π(G) is exactly the graph the
// explorer would have reached had the interchangeable threads been
// scheduled under π from the start.
//
// Canonicalize picks, deterministically per orbit, one representative
// fingerprint: the minimum of Fingerprint128(τ_π(G)) over the candidate
// permutations π. Feeding that canonical key to the visited set
// collapses each orbit (up to t! graphs) to a single explored state.
// Candidates are pruned by an equivariant per-thread signature: when
// the signatures within each group are pairwise distinct, sorting by
// signature fixes π outright (the fast path, one fingerprint
// evaluation); ties are resolved by brute force over the tie classes
// only. The total permutation count is capped at construction
// (maxSymPerms), so refinement is always bounded.

// maxSymPerms bounds the product of group-size factorials a SymSpec
// will accept; beyond it Finalize refuses and symmetry is disabled for
// the program (7! threads of one group would already be past any
// tractable exploration anyway).
const maxSymPerms = 5040

// SymSpec is the symmetry metadata of a program: which thread groups
// are interchangeable and how locations and values carry thread
// identity. It is built by the vprog layer (which validates the
// declared groups against the program) and consumed by the explorer.
// All slices indexed by Loc have one entry per allocated location.
type SymSpec struct {
	// N is the thread count of the program.
	N int
	// Groups holds the validated symmetric thread groups, each sorted
	// ascending with at least two members, pairwise disjoint.
	Groups [][]int

	// LocOwner maps a location to its owning thread (-1 = unowned).
	// Owned locations are per-thread replicas: under π, the events on a
	// location owned by u move to the family member owned by π(u).
	LocOwner []int32
	// LocFam maps a location to its family id (-1 = none). All owned
	// locations have a family; FamLoc[fam][u] is the member owned by u
	// (-1 when u owns no member — validation guarantees coverage for
	// every grouped thread whose group touches the family).
	LocFam []int32
	FamLoc [][]int32

	// ValTagged marks locations whose stored values embed a thread id:
	// field = (v >> ValShift) - ValBias; a field in [0,N) names a
	// thread and is rewritten to π(field) (bits below ValShift are
	// preserved), anything else is left alone.
	ValTagged []bool
	ValShift  []uint8
	ValBias   []int64

	groupOf   []int32 // thread -> index into Groups, -1 ungrouped
	permCount int     // product of group-size factorials
}

// Finalize computes the internal tables and reports whether the spec is
// usable: at least one group, and a total candidate-permutation count
// within maxSymPerms. A false return means symmetry must stay disabled.
func (s *SymSpec) Finalize() bool {
	if len(s.Groups) == 0 {
		return false
	}
	s.groupOf = make([]int32, s.N)
	for t := range s.groupOf {
		s.groupOf[t] = -1
	}
	s.permCount = 1
	for gi, grp := range s.Groups {
		if len(grp) < 2 {
			return false
		}
		for _, t := range grp {
			if t < 0 || t >= s.N || s.groupOf[t] >= 0 {
				return false
			}
			s.groupOf[t] = int32(gi)
		}
		for k := 2; k <= len(grp); k++ {
			s.permCount *= k
			if s.permCount > maxSymPerms {
				return false
			}
		}
	}
	return true
}

// PermCount returns the total number of candidate permutations (the
// product of group-size factorials).
func (s *SymSpec) PermCount() int { return s.permCount }

// AllPerms returns every candidate permutation (source thread ->
// canonical slot) in a deterministic order: the product of all
// within-group permutations, identity on ungrouped threads. The program
// fingerprint minimizes over this full set — it has no per-graph
// signatures to prune with — and tests use it to enumerate orbits.
func (s *SymSpec) AllPerms() [][]int32 {
	base := make([]int32, s.N)
	for t := range base {
		base[t] = int32(t)
	}
	out := [][]int32{append([]int32(nil), base...)}
	for _, grp := range s.Groups {
		var next [][]int32
		// All assignments of grp's members to grp's slots, composed with
		// every permutation accumulated from the previous groups.
		idx := make([]int, len(grp))
		var gen func(k int, used uint64)
		gen = func(k int, used uint64) {
			if k == len(grp) {
				for _, p := range out {
					np := append([]int32(nil), p...)
					for i, t := range grp {
						np[t] = int32(grp[idx[i]])
					}
					next = append(next, np)
				}
				return
			}
			for i := range grp {
				if used&(1<<uint(i)) != 0 {
					continue
				}
				idx[k] = i
				gen(k+1, used|1<<uint(i))
			}
		}
		gen(0, 0)
		out = next
	}
	return out
}

// MapLoc returns the location l lands on under perm: owned locations
// follow their owner to perm[owner]'s family member, everything else is
// fixed.
func (s *SymSpec) MapLoc(perm []int32, l Loc) Loc {
	o := s.LocOwner[l]
	if o < 0 {
		return l
	}
	p := perm[o]
	if p == o {
		return l
	}
	return Loc(s.FamLoc[s.LocFam[l]][p])
}

// MapVal rewrites the thread-id field of a value stored at location l
// (identity for untagged locations and out-of-range fields).
func (s *SymSpec) MapVal(perm []int32, l Loc, v uint64) uint64 {
	if !s.ValTagged[l] {
		return v
	}
	sh := s.ValShift[l]
	f := int64(v>>sh) - s.ValBias[l]
	if f < 0 || f >= int64(s.N) {
		return v
	}
	nf := uint64(int64(perm[f]) + s.ValBias[l])
	return v&(uint64(1)<<sh-1) | nf<<sh
}

// MapID relabels an event id: thread ids move under perm, init ids
// follow their location.
func (s *SymSpec) MapID(perm []int32, id EventID) EventID {
	if id.Thread == InitThread {
		return EventID{Thread: InitThread, Index: int(s.MapLoc(perm, Loc(id.Index)))}
	}
	return EventID{Thread: int(perm[id.Thread]), Index: id.Index}
}

// mappedLVR returns the (loc, val, rval) triple of e as it appears
// under perm. Only semantically meaningful fields are rewritten: fence
// and error events carry constant zero loc/values regardless of thread
// (replay builds their pendings without them), reads never set Val, and
// degraded updates write nothing — rewriting junk fields would make
// relabeled graphs differ from the graphs the explorer actually builds
// for the permuted schedule.
func (s *SymSpec) mappedLVR(perm []int32, e *Event) (Loc, Val, Val) {
	if e.Kind == KFence || e.Kind == KError {
		return e.Loc, e.Val, e.RVal
	}
	l := s.MapLoc(perm, e.Loc)
	v, rv := e.Val, e.RVal
	if e.Kind == KWrite || (e.Kind == KUpdate && !e.Degraded) {
		v = s.MapVal(perm, e.Loc, v)
	}
	if e.IsReadLike() {
		rv = s.MapVal(perm, e.Loc, rv)
	}
	return l, v, rv
}

// fingerprintUnderPerm computes Fingerprint128 of τ_perm(g) without
// materializing the relabeled graph. It must mirror Fingerprint128
// word for word: canonical slot s folds the events of source thread
// inv[s] with mapped loc/values/rf ids, and the mo section folds, for
// each canonical location, the mapped row of the source location that
// lands on it.
func (s *SymSpec) fingerprintUnderPerm(g *Graph, perm, inv []int32) Hash128 {
	h := NewHasher128()
	for slot := range g.Threads {
		t := int(inv[slot])
		h.Word(0xa11ce<<20 | uint64(slot))
		for _, e := range g.Threads[t] {
			degr := uint64(0)
			if e.Degraded {
				degr = 1
			}
			l, v, rv := s.mappedLVR(perm, e)
			h.Word(uint64(e.Kind)<<56 | uint64(e.Mode)<<48 | degr<<40 | uint64(uint32(l)))
			h.Word(v)
			h.Word(rv)
			if e.IsReadLike() {
				rf := g.rfAt(t, e.ID.Index)
				if rf.Bottom {
					h.Word(0xb0770e)
				} else {
					h.Word(hashID(s.MapID(perm, rf.W)))
				}
			}
		}
	}
	for l := range g.Mo {
		h.Word(0x0d0e<<20 | uint64(l))
		src := s.MapLoc(inv, Loc(l))
		for _, w := range g.Mo[src] {
			h.Word(hashID(s.MapID(perm, w)))
		}
	}
	return h.Sum()
}

// Signature tokens. Each is equivariant: the token thread t derives
// from an event is identical to the token π(t) derives from the
// relabeled event, for any candidate π — so sorting group members by
// signature hash yields the same canonical order on every member of an
// orbit. Absolute ids appear only where π provably fixes them.
const (
	sigLocPlain uint64 = 1 << 40 // unowned location: absolute loc id
	sigLocSelf  uint64 = 2 << 40 // owned by the signing thread: family id
	sigLocPeer  uint64 = 3 << 40 // owned by a same-group peer: family id
	sigLocFixed uint64 = 4 << 40 // owned by an ungrouped thread: absolute loc
	sigLocGroup uint64 = 5 << 40 // owned by another group's member: group+family
	sigValPlain uint64 = 6 << 40
	sigValSelf  uint64 = 7 << 40
	sigValPeer  uint64 = 8 << 40
	sigValGroup uint64 = 9 << 40
	sigRfInit   uint64 = 10 << 40
	sigRfBottom uint64 = 11 << 40
	sigRfSelf   uint64 = 12 << 40
	sigRfPeer   uint64 = 13 << 40
	sigRfFixed  uint64 = 14 << 40
	sigRfGroup  uint64 = 15 << 40
	sigMoPos    uint64 = 16 << 40
)

// threadToken classifies thread u relative to the signing thread t.
func (s *SymSpec) threadToken(t, u int, self, peer, fixed, group uint64) uint64 {
	switch {
	case u == t:
		return self
	case s.groupOf[u] < 0:
		return fixed | uint64(uint32(u))
	case s.groupOf[u] == s.groupOf[t]:
		return peer
	default:
		return group | uint64(uint32(s.groupOf[u]))<<20
	}
}

// valToken folds the value v stored at location l as seen by thread t.
func (s *SymSpec) valToken(h *Hasher128, t int, l Loc, v uint64) {
	if !s.ValTagged[l] {
		h.Word(sigValPlain)
		h.Word(v)
		return
	}
	sh := s.ValShift[l]
	f := int64(v>>sh) - s.ValBias[l]
	if f < 0 || f >= int64(s.N) {
		h.Word(sigValPlain)
		h.Word(v)
		return
	}
	h.Word(s.threadToken(t, int(f), sigValSelf, sigValPeer, sigValPlain, sigValGroup))
	h.Word(v & (uint64(1)<<sh - 1)) // residue bits below the id field
}

// signature computes the equivariant structural hash of thread t's row.
func (s *SymSpec) signature(g *Graph, t int) Hash128 {
	h := NewHasher128()
	for _, e := range g.Threads[t] {
		degr := uint64(0)
		if e.Degraded {
			degr = 1
		}
		h.Word(uint64(e.Kind)<<56 | uint64(e.Mode)<<48 | degr<<40)
		if e.Kind == KFence || e.Kind == KError {
			continue
		}
		if o := s.LocOwner[e.Loc]; o < 0 {
			h.Word(sigLocPlain | uint64(uint32(e.Loc)))
		} else if int(o) == t {
			h.Word(sigLocSelf | uint64(uint32(s.LocFam[e.Loc])))
		} else if s.groupOf[o] < 0 {
			h.Word(sigLocFixed | uint64(uint32(e.Loc)))
		} else if s.groupOf[o] == s.groupOf[t] {
			h.Word(sigLocPeer | uint64(uint32(s.LocFam[e.Loc])))
		} else {
			h.Word(sigLocGroup | uint64(uint32(s.groupOf[o]))<<20 | uint64(uint32(s.LocFam[e.Loc])))
		}
		if e.Kind == KWrite || (e.Kind == KUpdate && !e.Degraded) {
			s.valToken(&h, t, e.Loc, e.Val)
		}
		if e.IsReadLike() {
			s.valToken(&h, t, e.Loc, e.RVal)
			rf := g.rfAt(t, e.ID.Index)
			switch {
			case rf.Bottom:
				h.Word(sigRfBottom)
			case rf.W.IsInit():
				h.Word(sigRfInit)
			default:
				h.Word(s.threadToken(t, rf.W.Thread, sigRfSelf, sigRfPeer, sigRfFixed, sigRfGroup))
				h.Word(uint64(uint32(rf.W.Index)))
			}
		}
		if e.IsWriteLike() {
			h.Word(sigMoPos | uint64(uint32(g.MoIndex(e.Loc, e.ID))))
		}
	}
	return h.Sum()
}

// Less128 orders Hash128s lexicographically.
func Less128(a, b Hash128) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// SymScratch holds the per-worker scratch of Canonicalize; the zero
// value is ready to use and is resized lazily.
type SymScratch struct {
	perm, inv, best []int32
	sigs            []Hash128
	order           []int32 // grouped threads in signature-sorted slot order
	classes         []int32 // tie-class boundaries into order (start indices)
}

// sized ensures the scratch slices cover n threads.
func (sc *SymScratch) sized(n int) {
	if cap(sc.perm) < n {
		sc.perm = make([]int32, n)
		sc.inv = make([]int32, n)
		sc.best = make([]int32, n)
		sc.sigs = make([]Hash128, n)
	}
	sc.perm = sc.perm[:n]
	sc.inv = sc.inv[:n]
	sc.best = sc.best[:n]
	sc.sigs = sc.sigs[:n]
	sc.order = sc.order[:0]
	sc.classes = sc.classes[:0]
}

// IsIdentityPerm reports whether perm maps every thread to itself.
func IsIdentityPerm(perm []int32) bool {
	for t, p := range perm {
		if int(p) != t {
			return false
		}
	}
	return true
}

// Canonicalize returns the canonical dedup key of (g, forced-rf pair):
// the minimal Fingerprint128 over the candidate permutations, with the
// forced read/write ids folded in under each candidate exactly the way
// ExploreState.key folds them — so two states whose graphs and forced
// pairs are relabelings of each other collapse to one key. It also
// returns the argmin permutation (source thread -> canonical slot,
// valid until the next Canonicalize on the same scratch), whether the
// signature fast path resolved it, and how many candidates were
// evaluated. The result is deterministic per concrete state, and any
// two argmin permutations of one state differ by an automorphism of
// the canonical graph — so everything derived from the permutation
// (canonical witnesses, extension-slot choices) is orbit-stable too.
func (s *SymSpec) Canonicalize(g *Graph, sc *SymScratch, hasForced bool, forcedR, forcedW EventID) (key Hash128, perm []int32, fast bool, tried int) {
	n := len(g.Threads)
	sc.sized(n)
	for t := 0; t < n; t++ {
		sc.perm[t] = int32(t)
	}
	// Signature-sort each group's members onto the group's own slots;
	// equal signatures form tie classes to refine by brute force.
	for _, grp := range s.Groups {
		for _, t := range grp {
			sc.sigs[t] = s.signature(g, t)
		}
		start := len(sc.order)
		for _, t := range grp {
			sc.order = append(sc.order, int32(t))
		}
		members := sc.order[start:]
		// Insertion sort by (signature, thread id): groups hold a handful
		// of threads, and this runs once per popped state.
		for i := 1; i < len(members); i++ {
			for j := i; j > 0; j-- {
				a, b := members[j-1], members[j]
				if sa, sb := sc.sigs[a], sc.sigs[b]; Less128(sa, sb) || (sa == sb && a < b) {
					break
				}
				members[j-1], members[j] = b, a
			}
		}
		for k, t := range members {
			sc.perm[t] = int32(grp[k])
		}
		for k := 0; k < len(members); {
			j := k + 1
			for j < len(members) && sc.sigs[members[j]] == sc.sigs[members[k]] {
				j++
			}
			if j-k > 1 {
				sc.classes = append(sc.classes, int32(start+k), int32(start+j))
			}
			k = j
		}
	}
	if len(sc.classes) == 0 {
		copy(sc.best, sc.perm)
		return s.keyUnder(g, sc, sc.best, hasForced, forcedR, forcedW), sc.best, true, 1
	}
	key, tried = s.refine(g, sc, hasForced, forcedR, forcedW)
	return key, sc.best, false, tried
}

// keyUnder is the dedup key of (g, forced pair) relabeled by p.
func (s *SymSpec) keyUnder(g *Graph, sc *SymScratch, p []int32, hasForced bool, forcedR, forcedW EventID) Hash128 {
	for t, v := range p {
		sc.inv[v] = int32(t)
	}
	k := s.fingerprintUnderPerm(g, p, sc.inv)
	if hasForced {
		h := NewHasher128()
		h.Word(k[0])
		h.Word(k[1])
		h.Word(hashID(s.MapID(p, forcedR)))
		h.Word(hashID(s.MapID(p, forcedW)))
		k = h.Sum()
	}
	return k
}

// refine enumerates, in a deterministic order, every assignment of
// tie-class members to the class's slots (the product over tie classes,
// bounded by permCount <= maxSymPerms) and leaves the permutation with
// the minimal key in sc.best.
func (s *SymSpec) refine(g *Graph, sc *SymScratch, hasForced bool, forcedR, forcedW EventID) (best Hash128, tried int) {
	var rec func(ci int)
	rec = func(ci int) {
		if ci >= len(sc.classes) {
			k := s.keyUnder(g, sc, sc.perm, hasForced, forcedR, forcedW)
			if tried == 0 || Less128(k, best) {
				best = k
				copy(sc.best, sc.perm)
			}
			tried++
			return
		}
		lo, hi := int(sc.classes[ci]), int(sc.classes[ci+1])
		members := sc.order[lo:hi]
		var permute func(k int)
		permute = func(k int) {
			if k == len(members) {
				rec(ci + 2)
				return
			}
			for i := k; i < len(members); i++ {
				members[k], members[i] = members[i], members[k]
				sc.perm[members[k]], sc.perm[members[i]] = sc.perm[members[i]], sc.perm[members[k]]
				permute(k + 1)
				sc.perm[members[k]], sc.perm[members[i]] = sc.perm[members[i]], sc.perm[members[k]]
				members[k], members[i] = members[i], members[k]
			}
		}
		permute(0)
	}
	rec(0)
	return best, tried
}

// ApplyPerm materializes τ_perm(g): the graph in which thread perm[t]
// did what thread t did in g, with owned locations and tid-carrying
// values relabeled to match. Counterexample reporting uses it to
// present the canonical representative of a violating orbit regardless
// of which member the schedule happened to reach. The identity
// permutation returns g itself.
func (s *SymSpec) ApplyPerm(g *Graph, perm []int32) *Graph {
	if IsIdentityPerm(perm) {
		return g
	}
	inv := make([]int32, len(perm))
	for t, p := range perm {
		inv[p] = int32(t)
	}
	ng := New(len(g.Threads), g.InitVals, g.LocNames)
	evs := make([]*Event, 0, g.NumEvents())
	for _, row := range g.Threads {
		evs = append(evs, row...)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Stamp < evs[j].Stamp })
	for _, e := range evs {
		l, v, rv := s.mappedLVR(perm, e)
		ne := &Event{
			ID:        EventID{Thread: int(perm[e.ID.Thread]), Index: e.ID.Index},
			Kind:      e.Kind,
			Mode:      e.Mode,
			Loc:       l,
			Val:       v,
			RVal:      rv,
			Degraded:  e.Degraded,
			AwaitSeq:  e.AwaitSeq,
			AwaitIter: e.AwaitIter,
			Point:     e.Point,
			Msg:       e.Msg,
		}
		ng.Append(ne)
		if e.IsReadLike() {
			rf := g.RfOf(e.ID)
			if rf.Bottom {
				ng.SetRF(ne.ID, BottomRF)
			} else {
				ng.SetRF(ne.ID, FromW(s.MapID(perm, rf.W)))
			}
		}
	}
	for l := range ng.Mo {
		src := s.MapLoc(inv, Loc(l))
		row := make([]EventID, len(g.Mo[src]))
		for i, w := range g.Mo[src] {
			row[i] = s.MapID(perm, w)
		}
		ng.Mo[l] = row
	}
	return ng
}
