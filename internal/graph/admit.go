package graph

import "math/bits"

// Candidate describes a one-event extension of a graph before it is
// materialized: the next event of Thread, an access of Kind and Mode to
// Loc. A read-like candidate names its rf source RF (a ⊥ read adds no
// edge and needs no test); a plain write names MoPos, its slot in the
// extended modification order (1 <= MoPos <= len(Mo[Loc])); a
// non-degraded update takes the slot right after its source, the only
// one the explorer ever gives it.
type Candidate struct {
	Thread   int
	Kind     Kind // KRead, KWrite or KUpdate
	Mode     Mode
	Loc      Loc
	RF       EventID
	Degraded bool
	MoPos    int
}

// Admission is the verdict of Rels.Admit.
type Admission uint8

const (
	// Admissible: the extension passes the filter. This is a necessary
	// condition only — the memory model still decides.
	Admissible Admission = iota
	// Incoherent: the extension puts some event both hb-before the new
	// event and eco-after it, breaking irreflexive(hb;eco?). Every
	// restriction of the extended graph that keeps the new event's porf
	// prefix keeps the cycle.
	Incoherent
	// SplitsUpdate: the extension is coherent, but its write part lands
	// in mo between an existing update and that update's rf source,
	// breaking RMW atomicity — until a restriction drops the update.
	SplitsUpdate
)

// Admit is the filter-at-birth predicate: it decides, from the
// relations of the graph r describes and without building anything,
// whether appending the candidate event can possibly yield a consistent
// graph. It tests the two axioms every model shares — RMW atomicity and
// coherence, irreflexive(hb;eco?) — and only the part of them the new
// event can change, which is what Extend's soundness argument leaves:
// all new hb edges point into the new event e, eco gains nothing
// between existing events but self-loops, so the extended graph is
// incoherent exactly when some v is hb-before e and eco-after it.
//
//   - eco-after e: e's direct eco out-edges are the writes mo-after its
//     rf source (fr) and mo-after its own slot (mo) — the same suffix
//     of the parent's order for an update — and eco is transitively
//     closed over mo, so everything eco-after e is the first such write
//     and that write's Eco row. No suffix means no out-edge: reading
//     the mo-maximal write, or writing at the end of mo, is always
//     admissible.
//   - hb-before e: the inits, the last event of e's thread, the release
//     sides e's acquire read synchronizes with (swInto, the rule Extend
//     applies), and everything with an Hb edge to one of those.
//
// A write-like candidate that passes is then checked against the event
// it displaces in mo: an update reading from the write now before e.
func (r *Rels) Admit(c Candidate) Admission {
	g := r.G
	order := g.Mo[c.Loc]
	// first is the position in the parent's order of e's first direct
	// eco successor: the head of the mo suffix Extend turns into fr/mo
	// edges. (An rf source missing from mo cannot happen; it is admitted
	// and left to the model like any other malformed input.)
	first := c.MoPos
	if c.Kind != KWrite {
		if order[len(order)-1] == c.RF {
			return Admissible
		}
		first = g.MoIndex(c.Loc, c.RF) + 1
	}
	if first < 1 || first >= len(order) {
		return Admissible
	}

	words := r.Hb.words
	s, hbIn := wordScratch(words)
	for i := 0; i < r.nInit; i++ {
		SetBit(hbIn, i)
	}
	if evs := g.Threads[c.Thread]; len(evs) > 0 {
		SetBit(hbIn, r.IndexOf(evs[len(evs)-1].ID))
	}
	if c.Kind != KWrite {
		r.swInto(g, c.Mode, FromW(c.RF), func(rel int) { SetBit(hbIn, rel) })
	}
	hbBefore := func(v int) bool { return HasBit(hbIn, v) || r.Hb.rowIntersects(v, hbIn) }

	succ := r.IndexOf(order[first])
	incoherent := hbBefore(succ)
	row := r.Eco.bits[succ*words : (succ+1)*words]
	for w := 0; w < words && !incoherent; w++ {
		for word := row[w]; word != 0 && !incoherent; word &= word - 1 {
			incoherent = hbBefore(w*64 + bits.TrailingZeros64(word))
		}
	}
	acyclicPool.Put(s)
	if incoherent {
		return Incoherent
	}

	if c.Kind == KWrite || (c.Kind == KUpdate && !c.Degraded) {
		if d := g.Event(order[first]); d.Kind == KUpdate && g.RfOf(d.ID) == FromW(order[first-1]) {
			return SplitsUpdate
		}
	}
	return Admissible
}
