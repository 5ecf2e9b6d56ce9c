package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/workload"
)

// TestRestrictDifferential: with graph.CrossCheckRestrict armed, every
// relation set the explorer derives for a revisit out of its parent's
// (Rels.Restrict, reached through RelsOf by the revisits that survive
// dedup) is compared with BuildRels of the same graph. The corpus is
// poison_test.go's, at 1, 2 and 4 workers, with retired slabs and headers
// poisoned: a revisit item pins its parent until the child derives from
// it, possibly on a thief, and a parent released before that is read as
// all-ones here instead of as a plausible relation.
func TestRestrictDifferential(t *testing.T) {
	seen := graph.CrossCheckRestrict(true)
	defer graph.CrossCheckRestrict(false)
	poisoned(func() {
		for _, cell := range harness.Corpus(testing.Short()) {
			models := append(mm.All(), mm.Ablations()...)
			if cell.Big {
				models = []mm.Model{mm.WMM}
			}
			for _, m := range models {
				for _, workers := range []int{1, 2, 4} {
					res := runCell(m, cell.Program, workers, false)
					id := fmt.Sprintf("%s under %s at %d workers", cell.Program.Name, m.Name(), workers)
					if res.Verdict == core.Error || res.Verdict == core.Canceled {
						t.Fatalf("%s: unexpected %v: %v", id, res.Verdict, res.Err)
					}
					if _, mismatch := seen(); mismatch != "" {
						t.Fatalf("%s: a restricted derivation differs from BuildRels: %s", id, mismatch)
					}
				}
			}
		}
	})
	if derived, _ := seen(); derived < 1000 {
		t.Fatalf("only %d restricted derivations were compared: the hint is not wired", derived)
	}
}

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
