package harness

import (
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// CorpusCell is one program of Corpus. Big marks the three-thread
// cells, which the audited passes run under WMM only.
type CorpusCell struct {
	Program *vprog.Program
	Big     bool
}

// Corpus returns every registered lock's mutex client and every
// registered workload at two threads — seeded-bug and /bounded twins
// included — then the litmus tests at both strengths and the
// revisit-heavy qspinlock queue-path litmus, then, outside short mode,
// the three-thread cells where most rf/mo candidates die and thieves
// retire what they did not build; short is the caller's
// testing.Short(). The order is pinned by
// internal/core/testdata/filter_pins.txt.
//
// Corpus is what the explorer's audited tests run — internal/core's and
// internal/graph's audited passes, each cell under its models, symmetry
// on and off, at 1, 2 and 4 workers — kept next to the builders so the
// packages share one list.
func Corpus(short bool) []CorpusCell {
	var cells []CorpusCell
	for _, alg := range locks.All() {
		cells = append(cells, CorpusCell{Program: MutexClient(alg, alg.DefaultSpec(), 2, 1)})
	}
	for _, w := range workload.All() {
		cells = append(cells, CorpusCell{Program: workload.Program(w, nil, 2)})
	}
	for _, name := range LitmusNames() {
		cells = append(cells, CorpusCell{Program: Litmus(name, false)}, CorpusCell{Program: Litmus(name, true)})
	}
	qspin := locks.ByName("qspin")
	cells = append(cells, CorpusCell{Program: QspinQueuePathLitmus(qspin.DefaultSpec())})
	if !short {
		mcs := locks.ByName("mcs")
		cells = append(cells,
			CorpusCell{MutexClient(qspin, qspin.DefaultSpec(), 3, 1), true},
			CorpusCell{workload.Program(workload.ByName("structs/treiber"), nil, 3), true},
			CorpusCell{workload.Program(workload.ByName("structs/treiber-badpop"), nil, 3), true},
			CorpusCell{MutexClient(mcs, mcs.DefaultSpec(), 3, 1), true})
	}
	return cells
}
