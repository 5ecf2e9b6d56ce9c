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

// TestIncrementalAuditCorpus: with graph.AuditIncremental armed, every
// symmetry signature state a popped graph inherits or extends from its
// parent is folded again from the thread's whole row, and every
// coherence flag decided from a one-event delta is compared with a full
// scan of eco against hb. The corpus is harness.Corpus under the four
// models (its three-thread cells under WMM) at 1 and 2 workers, plus
// msqueue at three threads, at one worker, outside -short.
func TestIncrementalAuditCorpus(t *testing.T) {
	seen := graph.AuditIncremental(true)
	defer graph.AuditIncremental(false)
	cells := harness.Corpus(testing.Short())
	msqueue := len(cells)
	if !testing.Short() {
		cells = append(cells, harness.CorpusCell{Program: workload.Program(workload.ByName("structs/msqueue"), nil, 3), Big: true})
	}
	var sig graph.SigCounters
	var delta uint64
	for ci, cell := range cells {
		models := append(mm.All(), mm.Ablations()...)
		if cell.Big {
			models = []mm.Model{mm.WMM}
		}
		workerCounts := []int{1, 2}
		if ci == msqueue {
			workerCounts = workerCounts[:1]
		}
		for _, m := range models {
			for _, workers := range workerCounts {
				res := runCell(m, cell.Program, workers, false)
				id := fmt.Sprintf("%s under %s at %d workers", cell.Program.Name, m.Name(), workers)
				if res.Verdict == core.Error || res.Verdict == core.Canceled {
					t.Fatalf("%s: unexpected %v: %v", id, res.Verdict, res.Err)
				}
				if _, _, mismatch := seen(); mismatch != "" {
					t.Fatalf("%s: %s", id, mismatch)
				}
				sig.Add(res.Sig)
				delta += res.Acyclic.CohDelta
			}
		}
	}
	graphs, flags, _ := seen()
	if sig.Inherited == 0 || sig.Extended == 0 || sig.Scratch == 0 || delta == 0 || graphs == 0 || flags == 0 {
		t.Fatalf("a carry-over path never ran: signatures %+v, %d coherence flags by delta; %d graphs and %d flags audited",
			sig, delta, graphs, flags)
	}
	t.Logf("signatures: %d inherited, %d extended, %d from scratch over %d audited graphs; %d coherence flags by delta, all agree",
		sig.Inherited, sig.Extended, sig.Scratch, graphs, flags)
}
