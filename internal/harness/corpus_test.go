package harness_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	_ "repro/internal/structs" // registers the structure workloads
)

// TestCorpusFingerprintsPinned: Program.Fingerprint128 is the program
// half of every verdict-store key, so a change to how a trace is folded
// may not move it. testdata/corpus_fingerprints.txt holds the
// fingerprint of every corpus cell — programs with and without a
// symmetry spec, locks, structures and litmus tests — as computed
// before the plain and the permutation-folding trace interpreters
// became one.
func TestCorpusFingerprintsPinned(t *testing.T) {
	data, err := os.ReadFile("testdata/corpus_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	pins := strings.Split(strings.TrimSpace(string(data)), "\n")
	cells := harness.Corpus(false)
	if len(pins) != len(cells) {
		t.Fatalf("%d pinned fingerprints, %d corpus cells", len(pins), len(cells))
	}
	plain := 0
	for i, c := range cells {
		p := c.Program
		fp := p.Fingerprint128()
		if got := fmt.Sprintf("%s\t%016x%016x", p.Name, fp[0], fp[1]); got != pins[i] {
			t.Errorf("cell %d: %q, pinned %q", i, got, pins[i])
		}
		if p.SymSpec() == nil {
			plain++
		}
	}
	if plain == 0 || plain == len(cells) {
		t.Fatalf("%d of %d cells have no symmetry spec: the pins must cover both folds", plain, len(cells))
	}
}
