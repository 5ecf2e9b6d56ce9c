package harness

import (
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// DiffLocks and Corpus are what the explorer's differential tests run
// (internal/core's *_diff_test.go, internal/graph's poison corpus), kept
// next to the builders so the packages share one list; short is the
// caller's testing.Short().

// DiffLocks returns the two-thread mutex clients of four structurally
// different locks and the two buggy study cases, plus ttas and clh
// outside short mode.
func DiffLocks(short bool) []*vprog.Program {
	names := []string{"spin", "ticket", "mcs", "qspin", "dpdkmcs-buggy", "huaweimcs-buggy"}
	if !short {
		names = append(names, "ttas", "clh")
	}
	var ps []*vprog.Program
	for _, name := range names {
		alg := locks.ByName(name)
		ps = append(ps, MutexClient(alg, alg.DefaultSpec(), 2, 1))
	}
	return ps
}

// CorpusCell is one program of Corpus. Big marks the three-thread
// cells, which are affordable under WMM with symmetry reduction only.
type CorpusCell struct {
	Program *vprog.Program
	Big     bool
}

// Corpus returns every registered lock's mutex client and every
// registered workload at two threads — seeded-bug and /bounded twins
// included — then the litmus tests at both strengths, then, outside
// short mode, the three-thread cells where most rf/mo candidates die
// and thieves retire what they did not build. The order is pinned by
// internal/core/testdata/filter_pins.txt.
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
	if !short {
		qspin := locks.ByName("qspin")
		cells = append(cells,
			CorpusCell{MutexClient(qspin, qspin.DefaultSpec(), 3, 1), true},
			CorpusCell{workload.Program(workload.ByName("structs/treiber"), nil, 3), true},
			CorpusCell{workload.Program(workload.ByName("structs/treiber-badpop"), nil, 3), true})
	}
	return cells
}
