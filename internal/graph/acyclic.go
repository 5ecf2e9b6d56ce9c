package graph

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the closure-free acyclicity engine. The memory-model
// consistency predicates in internal/mm decide every verdict by asking
// whether some union of relation matrices is acyclic; historically that
// went through HasCycle, a full O(n³/64) transitive closure per check,
// several times per explored graph. The engine replaces the closure
// with two cheaper layers:
//
//   - Acyclic: an iterative bitset Kahn pass over the adjacency rows —
//     O(n²/64 + edges), pooled scratch, zero steady-state allocations.
//   - AcyclicSeeded / AcyclicWithOrder: an O(n²/64) fast path that
//     verifies the matrix against a cached topological order (carried
//     per exploration state by Rels and maintained incrementally by
//     Extend). When every edge respects the order the relation is
//     acyclic by construction and the Kahn pass is skipped entirely.
//
// TransClose/HasCycle remain for the places where a true closure is
// semantically needed (Hb/Eco construction in BuildRels) and as the
// differential oracle (CrossCheckAcyclic, TestBitMatProperties).

// CrossCheckAcyclic, when true, makes every Acyclic/AcyclicSeeded/
// AcyclicWithOrder call also run the closure-based HasCycle oracle and
// panic on disagreement. Test-only (the corpus differential tests flip
// it around full explorations); it must be toggled only while no
// checker is running.
var CrossCheckAcyclic bool

// acyclicScratch pools the working state of the engine: Kahn's
// indegree and worklist arrays, a position buffer for order refreshes,
// and the seen-mask of the order verification fast path.
type acyclicScratch struct {
	indeg []int32
	queue []int32
	pos   []int32
	seen  []uint64
}

var acyclicPool = sync.Pool{New: func() any { return new(acyclicScratch) }}

// int32Scratch returns buf resized to n elements (contents arbitrary).
func int32Scratch(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// lastWordMask masks off the row bits at column n and beyond, so a
// stray bit past the matrix dimension can never be read as an edge.
func lastWordMask(n int) uint64 {
	if r := uint(n) % 64; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// Engine counters (process-wide, atomic). Incremented once per check
// or per order-maintenance step — never per edge — so the hot path
// pays a handful of uncontended atomic adds per explored graph.
var (
	acChecks    atomic.Uint64
	acSeedHits  atomic.Uint64
	acKahn      atomic.Uint64
	acCycles    atomic.Uint64
	acShortcuts atomic.Uint64
	acExtends   atomic.Uint64
	acDerives   atomic.Uint64
	acCyclicSt  atomic.Uint64
	acCohDelta  atomic.Uint64
	acCohScans  atomic.Uint64
)

// AcyclicCounters is a snapshot of the acyclicity engine's cumulative
// event counts. Counters are process-wide: concurrent runs (a pool of
// checkers) fold into the same totals, so per-run deltas taken around
// a run are exact only when nothing else verifies in parallel.
type AcyclicCounters struct {
	Checks        uint64 // Acyclic/AcyclicSeeded/AcyclicWithOrder calls
	SeedHits      uint64 // checks decided by the cached-order fast path
	KahnPasses    uint64 // full Kahn passes (cold checks and seed misses)
	CyclesFound   uint64 // checks that reported a cycle
	TopoShortcuts uint64 // verdicts decided from the cached order state alone
	OrderExtends  uint64 // Extend maintained the cached order by insertion
	OrderDerives  uint64 // lazy full derivations (first use of an underived state — fresh builds and back-edge parks alike)
	OrderCyclic   uint64 // states whose sb ∪ rf ∪ mo union is cyclic
	CohDelta      uint64 // coherence verdicts carried over by a one-event delta (Rels.Coherent)
	CohScans      uint64 // coherence verdicts derived by a full eco scan
}

// AcyclicCountersNow returns the current cumulative counters.
func AcyclicCountersNow() AcyclicCounters {
	return AcyclicCounters{
		Checks:        acChecks.Load(),
		SeedHits:      acSeedHits.Load(),
		KahnPasses:    acKahn.Load(),
		CyclesFound:   acCycles.Load(),
		TopoShortcuts: acShortcuts.Load(),
		OrderExtends:  acExtends.Load(),
		OrderDerives:  acDerives.Load(),
		OrderCyclic:   acCyclicSt.Load(),
		CohDelta:      acCohDelta.Load(),
		CohScans:      acCohScans.Load(),
	}
}

// Sub returns the counter delta c - o (for per-run accounting).
func (c AcyclicCounters) Sub(o AcyclicCounters) AcyclicCounters {
	return AcyclicCounters{
		Checks:        c.Checks - o.Checks,
		SeedHits:      c.SeedHits - o.SeedHits,
		KahnPasses:    c.KahnPasses - o.KahnPasses,
		CyclesFound:   c.CyclesFound - o.CyclesFound,
		TopoShortcuts: c.TopoShortcuts - o.TopoShortcuts,
		OrderExtends:  c.OrderExtends - o.OrderExtends,
		OrderDerives:  c.OrderDerives - o.OrderDerives,
		OrderCyclic:   c.OrderCyclic - o.OrderCyclic,
		CohDelta:      c.CohDelta - o.CohDelta,
		CohScans:      c.CohScans - o.CohScans,
	}
}

// CountTopoShortcut records a verdict-path decision made purely from
// the cached topological order state (internal/mm: SC's cyclic-union
// early-out and WMM's porf-subset shortcut).
func CountTopoShortcut() { acShortcuts.Add(1) }

// kahn runs an iterative Kahn pass over the adjacency rows and reports
// whether the relation is acyclic (a self-loop counts as a cycle).
// When out is non-nil and the pass succeeds, out[k] receives the
// vertex at topological position k; on a cyclic relation only a prefix
// of out is written, so callers that cache orders must treat out as
// valid only on a true return.
func (m *BitMat) kahn(out []int32) bool {
	n := m.n
	if n == 0 {
		return true
	}
	s := acyclicPool.Get().(*acyclicScratch)
	s.indeg = int32Scratch(s.indeg, n)
	s.queue = int32Scratch(s.queue, n)
	indeg := s.indeg
	clear(indeg)
	tail := lastWordMask(n)
	last := m.words - 1
	for i := 0; i < n; i++ {
		row := m.bits[i*m.words : (i+1)*m.words]
		for w, word := range row {
			if w == last {
				word &= tail
			}
			for word != 0 {
				indeg[w*64+bits.TrailingZeros64(word)]++
				word &= word - 1
			}
		}
	}
	// LIFO worklist, seeded in reverse so low indices pop first; each
	// vertex enters at most once (its indegree reaches zero once), so
	// the preallocated capacity n never reallocates.
	queue := s.queue[:0]
	for v := n - 1; v >= 0; v-- {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	processed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if out != nil {
			out[processed] = u
		}
		processed++
		row := m.bits[int(u)*m.words : (int(u)+1)*m.words]
		for w, word := range row {
			if w == last {
				word &= tail
			}
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				if indeg[j]--; indeg[j] == 0 {
					queue = append(queue, int32(j))
				}
				word &= word - 1
			}
		}
	}
	acyclicPool.Put(s)
	return processed == n
}

// respectsOrder reports whether order is a permutation of the vertices
// under which every edge points forward — a witness that the relation
// is acyclic, verified in O(n²/64) word operations. An order of the
// wrong length, with out-of-range entries or with duplicates is
// rejected (the caller then falls back to the full Kahn pass), so any
// stale or malformed seed degrades performance, never correctness.
func (m *BitMat) respectsOrder(order []int32) bool {
	n := m.n
	if len(order) != n {
		return false
	}
	s := acyclicPool.Get().(*acyclicScratch)
	if cap(s.seen) < m.words {
		s.seen = make([]uint64, m.words)
	} else {
		s.seen = s.seen[:m.words]
	}
	seen := s.seen
	clear(seen)
	ok := true
outer:
	for k := 0; k < n; k++ {
		v := int(order[k])
		if v < 0 || v >= n || seen[v/64]&(1<<(uint(v)%64)) != 0 {
			ok = false // not a permutation
			break
		}
		// Mark v before scanning its row so a self-loop is caught too.
		seen[v/64] |= 1 << (uint(v) % 64)
		row := m.bits[v*m.words : (v+1)*m.words]
		for w, word := range row {
			if word&seen[w] != 0 {
				ok = false // an edge into an earlier-placed vertex
				break outer
			}
		}
	}
	acyclicPool.Put(s)
	return ok
}

// crossCheck validates got against the closure oracle when the
// differential hook is armed.
func (m *BitMat) crossCheck(got bool) {
	if CrossCheckAcyclic && got == m.HasCycle() {
		panic(fmt.Sprintf("graph: acyclicity engine says acyclic=%v, transitive closure disagrees (n=%d)", got, m.n))
	}
}

// Acyclic reports whether the relation, viewed as a directed graph,
// contains no cycle. Unlike HasCycle it never computes a transitive
// closure: one Kahn pass over the adjacency rows, O(n²/64 + edges),
// with pooled scratch and zero steady-state allocations.
func (m *BitMat) Acyclic() bool {
	acChecks.Add(1)
	acKahn.Add(1)
	ok := m.kahn(nil)
	if !ok {
		acCycles.Add(1)
	}
	m.crossCheck(ok)
	return ok
}

// AcyclicSeeded is Acyclic seeded with a cached topological order
// (position → vertex): when every edge of m respects order the answer
// is an O(n²/64) verification, otherwise it falls back to the full
// Kahn pass. order is never written; pass nil to skip the fast path.
// Use this when order belongs to a different (sub-)relation whose
// invariant a refresh from m would violate.
func (m *BitMat) AcyclicSeeded(order []int32) bool {
	acChecks.Add(1)
	if order != nil && m.respectsOrder(order) {
		acSeedHits.Add(1)
		m.crossCheck(true)
		return true
	}
	acKahn.Add(1)
	ok := m.kahn(nil)
	if !ok {
		acCycles.Add(1)
	}
	m.crossCheck(ok)
	return ok
}

// AcyclicWithOrder is AcyclicSeeded with refresh: when the fast path
// misses but the Kahn pass finds m acyclic (and order has the right
// length), the freshly discovered topological order is written back
// into order, so the next check over the same or a derived state hits
// the fast path again. On a false return order is left untouched — a
// caller's cached order is only ever replaced by a valid one. Refresh
// is only sound when m is a superset of the relation order is cached
// for (a topological order of a superset orders every subset).
func (m *BitMat) AcyclicWithOrder(order []int32) bool {
	acChecks.Add(1)
	if order != nil && m.respectsOrder(order) {
		acSeedHits.Add(1)
		m.crossCheck(true)
		return true
	}
	acKahn.Add(1)
	s := acyclicPool.Get().(*acyclicScratch)
	s.pos = int32Scratch(s.pos, m.n)
	pos := s.pos
	ok := m.kahn(pos)
	if ok && len(order) == m.n {
		copy(order, pos)
	}
	acyclicPool.Put(s)
	if !ok {
		acCycles.Add(1)
	}
	m.crossCheck(ok)
	return ok
}
