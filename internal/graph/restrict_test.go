package graph_test

import (
	"testing"

	"repro/internal/mm"
	"repro/internal/workload"
)

// TestRestrictReplacesBuild: no revisit of a run reaches BuildRels — the
// one order derived from scratch is the root's — and everything the new
// paths hold comes back. A hint that RestrictTo's invalidate clears
// before it is used shows in the first count; a revisit parent whose
// reference a duplicate's release does not drop, or a child rejected at
// birth and not released, is a slab or a header that never returns to
// the free list (a sequential treiber t=3 run allocates 224 slabs and 577
// headers; either leak, several thousand).
func TestRestrictReplacesBuild(t *testing.T) {
	res := runCell(mm.WMM, workload.Program(workload.ByName("structs/treiber"), nil, 3), 1, false)
	if !res.Ok() || res.Stats.Revisits == 0 || res.Stats.Collapsed == 0 {
		t.Fatalf("%v with %d revisits, %d collapsed: nothing to test", res, res.Stats.Revisits, res.Stats.Collapsed)
	}
	if res.Acyclic.OrderDerives > 1 {
		t.Errorf("%d orders derived from scratch over %d revisits, want the root's alone", res.Acyclic.OrderDerives, res.Stats.Revisits)
	}
	m := res.Mem
	if missed := m.SlabRequests - m.SlabHits; missed*50 > m.SlabRequests {
		t.Errorf("%d of %d relation slabs came from the allocator: revisit parents are not released", missed, m.SlabRequests)
	}
	if missed := m.HeaderRequests - m.HeaderHits; missed*20 > m.HeaderRequests {
		t.Errorf("%d of %d graph headers came from the allocator: rejected children are not released", missed, m.HeaderRequests)
	}
}
