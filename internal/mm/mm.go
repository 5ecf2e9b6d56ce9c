// Package mm implements weak memory models as consistency predicates
// over execution graphs (the consM of the paper, §1.1).
//
// Four models are provided:
//
//   - SC: sequential consistency — a single total order refines po, rf,
//     mo and fr. The strongest model; used for the "sc-only" baseline
//     and for differential testing.
//   - TSO: x86-style total store order — stores may be delayed past
//     subsequent loads unless an SC fence or a locked RMW intervenes.
//   - WMM: an RC11-flavoured release/acquire model standing in for the
//     paper's IMM: per-location coherence, RMW atomicity,
//     release/acquire synchronization (sw ⊆ hb), SC-fence/access
//     ordering (psc), and no-thin-air (acyclic(po ∪ rf)).
//   - RA: WMM without psc, an ablation model (see Ablations): which
//     verdicts depend on SC accesses and fences.
//
// All models share the RMW atomicity axiom: a non-degraded update must
// read from its immediate mo-predecessor.
//
// Every acyclicity axiom is decided closure-free: the predicates build
// union adjacency matrices and ask the acyclicity engine
// (graph.BitMat.Acyclic and friends) instead of computing transitive
// closures, seeding the checks with the topological order of
// sb ∪ rf ∪ mo that Rels carries across Extend. Two verdicts come
// straight from that cached order state: a cyclic union rejects SC
// without building anything, and a valid order proves porf (a subset)
// acyclic for free. Coherence (eco ∩ hb⁻¹ = ∅) is a fact Rels carries
// across Extend as well, so RA and WMM ask it rather than scan for it.
//
// The SC axiom of WMM, acyclic(psc), is composition-free as well: psc is
// defined through scb = sb ∪ (sb\sbloc);hb;(sb\sbloc) ∪ hb|loc ∪ mo ∪ fr
// and hb;eco;hb, and neither those products nor scb are ever built.
// Each SC access or fence gets its psc row from a handful of
// vector×matrix products over the relations Rels carries (see
// pscAcyclic), so the axiom costs O(anchors · n²/64) word operations
// and no allocation where the materializing form cost O(n³/64) and
// seven scratch matrices.
package mm

import (
	"sync"

	"repro/internal/graph"
)

// Model is a weak memory model: a consistency predicate over execution
// graphs. Consistent must be monotone under event removal (a subgraph
// of a consistent graph is consistent), which every axiomatic
// (acyclicity-based) model satisfies; AMC relies on this to prune.
//
// Every model must also imply RMW atomicity (a non-degraded update sits
// immediately after its rf source in mo) and coherence,
// irreflexive(hb;eco?) over the relations of graph.Rels. The explorer
// filters rf and mo candidates on those two axioms, against the parent
// graph's relations, before it builds them (graph.Rels.Admit), and only
// asks Consistent about what survives: a model that accepted a graph
// breaking either would silently lose that graph's whole subtree. SC,
// TSO, WMM and RA all qualify. Nothing else about the model is assumed
// — in particular not its identity, so a wrapper with the same
// Consistent explores the same states.
type Model interface {
	Name() string
	Consistent(g *graph.Graph) bool
}

// Registry of the built-in models.
var (
	SC  Model = scModel{}
	TSO Model = tsoModel{}
	WMM Model = wmmModel{}
	// RA is WMM without the SC axiom (psc) — an ablation model showing
	// which verification results depend on sequentially-consistent
	// accesses/fences: e.g. the reader-writer lock's Dekker handshake
	// verifies under WMM but not here without stronger primitives, and
	// SC-fenced store buffering becomes observable.
	RA Model = raModel{}
)

// All returns the built-in correctness models, strongest first.
//
// RA is deliberately NOT included: it is an ablation model — WMM with
// the SC axiom removed — under which algorithms that are correct on
// every real target legitimately fail (the reader-writer lock's Dekker
// handshake, SC-fenced store buffering). The test corpus iterates All()
// asserting properties that hold on every correctness model, so adding
// RA here would turn those expected ablation failures into test
// failures. Use Ablations (or ByName("ra")) to reach it explicitly.
func All() []Model { return []Model{SC, TSO, WMM} }

// Ablations returns the models that exist to show which verification
// results depend on an axiom, not to model a real target. They are
// addressable by ByName but excluded from All().
func Ablations() []Model { return []Model{RA} }

// raModel is wmmModel minus the psc axiom.
type raModel struct{}

func (raModel) Name() string { return "ra" }

func (raModel) Consistent(g *graph.Graph) bool {
	if !atomicity(g) {
		return false
	}
	r := graph.RelsOf(g)

	// COHERENCE: irreflexive(hb ; eco?).
	if !r.Hb.Irreflexive() {
		return false
	}
	if !r.Coherent() {
		return false
	}

	// NO-THIN-AIR: acyclic(sb ∪ rf).
	return porfAcyclic(r)
}

// ByName returns the model with the given name, or nil. The ablation
// models are addressable by name but not part of All().
func ByName(name string) Model {
	for _, m := range append(All(), Ablations()...) {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// atomicity checks the shared RMW axiom: each non-degraded update reads
// from its immediate mo-predecessor (no write intervenes between the
// source and the update in mo).
func atomicity(g *graph.Graph) bool {
	for _, evs := range g.Threads {
		for _, e := range evs {
			if e.Kind != graph.KUpdate || e.Degraded {
				continue
			}
			rf := g.RfOf(e.ID)
			if rf.Bottom {
				continue // blocked update: constrains nothing yet
			}
			src := g.MoIndex(e.Loc, rf.W)
			self := g.MoIndex(e.Loc, e.ID)
			if src < 0 || self < 0 || self != src+1 {
				return false
			}
		}
	}
	return true
}

// porfAcyclic decides NO-THIN-AIR: acyclic(sb ∪ rf). When the cached
// topological order of sb ∪ rf ∪ mo is valid, porf is a subset of an
// ordered acyclic relation and the answer is immediate; otherwise the
// union adjacency is built and checked closure-free.
func porfAcyclic(r *graph.Rels) bool {
	if r.TopoOK() {
		graph.CountTopoShortcut()
		if graph.CrossCheckAcyclic {
			porf := r.Sb.ClonePooled()
			porf.OrWith(r.RfM)
			if porf.HasCycle() {
				panic("mm: porf subset shortcut disagrees with the transitive closure")
			}
			porf.Release()
		}
		return true
	}
	porf := r.Sb.ClonePooled()
	porf.OrWith(r.RfM)
	ok := porf.Acyclic()
	porf.Release()
	return ok
}

// scModel: acyclic(sb ∪ rf ∪ mo ∪ fr) over all events.
type scModel struct{}

func (scModel) Name() string { return "sc" }

func (scModel) Consistent(g *graph.Graph) bool {
	if !atomicity(g) {
		return false
	}
	r := graph.RelsOf(g)
	u := r.Sb.ClonePooled()
	u.OrWith(r.RfM)
	u.OrWith(r.MoM)
	u.OrWith(r.FrM)
	// u is a superset of the cached order's union: a cyclic cached
	// state rejects without a pass, a valid order seeds (and a miss
	// refreshes) it, and on underived states the deciding Kahn pass
	// doubles as the derivation.
	ok := r.AcyclicSuperset(u)
	u.Release()
	return ok
}

// tsoModel: per-location coherence plus a global order on ppo, external
// rf, mo and fr, where ppo relaxes store→load pairs unless separated by
// an SC fence or a locked RMW.
type tsoModel struct{}

func (tsoModel) Name() string { return "tso" }

// drainPool recycles the per-thread drain-point prefix arrays of the
// TSO predicate (one int32 per event of the longest thread).
var drainPool = sync.Pool{New: func() any { return new([]int32) }}

func (tsoModel) Consistent(g *graph.Graph) bool {
	if !atomicity(g) {
		return false
	}
	r := graph.RelsOf(g)

	// Per-location coherence (sc-per-loc). Seed-only: sbloc drops sb
	// edges, so a refreshed order of this union would not be valid for
	// the cached sb ∪ rf ∪ mo order.
	coh := r.SbLoc.ClonePooled()
	coh.OrWith(r.RfM)
	coh.OrWith(r.MoM)
	coh.OrWith(r.FrM)
	ok := coh.AcyclicSeeded(r.TopoOrder())
	coh.Release()
	if !ok {
		return false
	}

	// Global happens-before: ppo ∪ rfe ∪ mo ∪ fr.
	ghb := graph.NewBitMatPooled(r.N)
	visible := func(e *graph.Event) bool {
		if e.Kind == graph.KError {
			return false
		}
		if e.Kind == graph.KFence {
			return e.Mode.IsSC() // only mfence-like fences order on TSO
		}
		return true
	}
	nInit := len(g.InitVals)
	for i := 0; i < nInit; i++ {
		for j := nInit; j < r.N; j++ {
			if visible(r.Ev[j]) {
				ghb.Set(i, j)
			}
		}
	}
	drainp := drainPool.Get().(*[]int32)
	for _, evs := range g.Threads {
		// Drain-point prefix array: drains[b] is the largest index k < b
		// holding an SC fence or a locked RMW, or -1. A store→load pair
		// (a, b) is drained iff drains[b] > a — an O(1) probe replacing
		// the old O(len) rescan of (a, b) for every relaxed pair.
		drains := int32ScratchMM(drainp, len(evs))
		last := int32(-1)
		for k, ek := range evs {
			drains[k] = last
			if (ek.Kind == graph.KFence && ek.Mode.IsSC()) || ek.Kind == graph.KUpdate {
				last = int32(k)
			}
		}
		for a := 0; a < len(evs); a++ {
			ea := evs[a]
			if !visible(ea) {
				continue
			}
			for b := a + 1; b < len(evs); b++ {
				eb := evs[b]
				if !visible(eb) {
					continue
				}
				// Store→load is relaxed unless drained in between.
				if ea.Kind == graph.KWrite && eb.Kind == graph.KRead && drains[b] <= int32(a) {
					continue
				}
				ghb.Set(r.IndexOf(ea.ID), r.IndexOf(eb.ID))
			}
		}
	}
	drainPool.Put(drainp)
	// External rf only (store forwarding lets a thread read its own
	// buffered store early).
	for t, evs := range g.Threads {
		for _, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rf := g.RfOf(e.ID)
			if rf.Bottom || rf.W.Thread == t {
				continue
			}
			ghb.Set(r.IndexOf(rf.W), r.IndexOf(e.ID))
		}
	}
	ghb.OrWith(r.MoM)
	ghb.OrWith(r.FrM)
	ok = ghb.AcyclicSeeded(r.TopoOrder())
	ghb.Release()
	return ok
}

// int32ScratchMM resizes the pooled buffer at *p to n elements
// (contents arbitrary), keeping the largest allocation for reuse.
func int32ScratchMM(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return *p
}

// wmmModel: the RC11-flavoured stand-in for IMM.
type wmmModel struct{}

func (wmmModel) Name() string { return "wmm" }

// Consistent is raModel's atomicity, coherence and no-thin-air plus
// SC: acyclic(psc_base ∪ psc_f), RC11-style.
func (wmmModel) Consistent(g *graph.Graph) bool {
	return raModel{}.Consistent(g) && pscAcyclic(graph.RelsOf(g))
}

// pscStackWords is the row width (in words) up to which pscAcyclic's
// scratch vectors live on its stack: 576 events.
const pscStackWords = 9

// pscAcyclic decides the RC11 SC axiom, acyclic(psc_base ∪ psc_f), over
// the SC accesses (Esc) and SC fences (Fsc):
//
//	scb      = sb ∪ (sb\sbloc);hb;(sb\sbloc) ∪ hb|loc ∪ mo ∪ fr
//	psc_base = ([Esc] ∪ [Fsc];hb?) ; scb ; ([Esc] ∪ hb?;[Fsc])
//	psc_f    = [Fsc] ; (hb ∪ hb;eco;hb) ; [Fsc]
//
// Neither scb nor any composition is materialized. psc is built one row
// per SC anchor a, as products of a bit vector with the relations Rels
// already carries: the events an scb path anchored at a may start from,
// times scb term by term, gives the events it may end at; those, closed
// under hb? for the fence anchors on the right, masked to the anchors,
// are a's psc_base successors. Nothing is built below two SC
// participants, nothing but psc itself is taken from a pool, and an
// empty psc skips the cycle pass.
func pscAcyclic(r *graph.Rels) bool {
	n, words := r.N, r.Hb.Words()
	var stack [6 * pscStackWords]uint64
	buf := stack[:]
	if 6*words > len(buf) {
		buf = make([]uint64, 6*words)
	}
	vec := func(k int) []uint64 { return buf[k*words : (k+1)*words] }
	accs, fences := vec(0), vec(1) // Esc and Fsc as masks
	scAcc, scF := 0, 0
	for i := 0; i < n; i++ {
		if r.IsSCFence(i) {
			graph.SetBit(fences, i)
			scF++
		} else if r.IsSCEvent(i) {
			graph.SetBit(accs, i)
			scAcc++
		}
	}
	if scAcc+scF < 2 {
		return true // fewer than two SC participants never form a psc cycle
	}

	starts, reach, x, y := vec(2), vec(3), vec(4), vec(5)
	psc := graph.NewBitMatPooled(n)
	defer psc.Release()
	empty := true
	for a := 0; a < n; a++ {
		fence := graph.HasBit(fences, a)
		if !fence && !graph.HasBit(accs, a) {
			continue
		}
		// [Esc] ∪ [Fsc];hb? — a, and for a fence everything hb-after it.
		clear(starts)
		if fence {
			copy(starts, r.Hb.Row(a))
		}
		graph.SetBit(starts, a)
		// reach = starts;scb: sb, mo, fr and hb|loc first.
		clear(reach)
		r.Sb.OrRows(reach, starts)
		r.MoM.OrRows(reach, starts)
		r.FrM.OrRows(reach, starts)
		r.OrHbLoc(reach, starts)
		// (sb\sbloc);hb;(sb\sbloc), left to right.
		clear(x)
		r.Sb.OrRowsMinus(r.SbLoc, x, starts)
		clear(y)
		r.Hb.OrRows(y, x)
		r.Sb.OrRowsMinus(r.SbLoc, reach, y)

		// [Esc] ∪ hb?;[Fsc] on the right.
		row := psc.Row(a)
		for w := range row {
			row[w] = reach[w] & accs[w]
		}
		if scF > 0 {
			copy(y, reach)
			r.Hb.OrRows(y, reach)
			for w := range row {
				row[w] |= y[w] & fences[w]
			}
		}
		// psc_f relates two distinct SC fences.
		if fence && scF >= 2 {
			hb := r.Hb.Row(a)
			clear(x)
			r.Eco.OrRows(x, hb)
			copy(y, hb)
			r.Hb.OrRows(y, x)
			y[a/64] &^= 1 << (uint(a) % 64)
			for w := range row {
				row[w] |= y[w] & fences[w]
			}
		}
		for _, word := range row {
			empty = empty && word == 0
		}
	}
	if empty {
		return true // no psc edge at all: trivially acyclic
	}
	return psc.AcyclicSeeded(r.TopoOrder())
}
