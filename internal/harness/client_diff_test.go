package harness_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The refactor bar: the lock clients rebuilt over internal/workload
// must be indistinguishable from the pre-refactor builders at the
// program level — same reporting name, same candidate symmetry groups,
// and byte-identical Program.Fingerprint128, which is the program half
// of every verdict-store key. testdata/veneer_fingerprints.txt holds,
// for every shape the tests below build, the name, symmetry groups and
// fingerprint the pre-workload MutexClient, RWClient and
// RecursiveClient gave; any drift in the adapters shows up here before
// it can orphan the pooled verdict corpus.

// veneerLine renders the store-relevant facets of a program as one pin
// line: name, symmetry groups (nil apart from empty) and fingerprint.
func veneerLine(p *vprog.Program) string {
	fp := p.Fingerprint128()
	groups := "nil"
	if p.SymGroups != nil {
		groups = fmt.Sprint(p.SymGroups)
	}
	return fmt.Sprintf("%s\t%s\t%016x%016x", p.Name, groups, fp[0], fp[1])
}

// samePinned demands that progs are, in order, exactly the pinned
// programs whose names start with prefix.
func samePinned(t *testing.T, prefix string, progs []*vprog.Program) {
	t.Helper()
	data, err := os.ReadFile("testdata/veneer_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	var pins []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(l, prefix) {
			pins = append(pins, l)
		}
	}
	if len(pins) != len(progs) {
		t.Fatalf("%d pinned %s programs, %d built", len(pins), prefix, len(progs))
	}
	for i, p := range progs {
		if got := veneerLine(p); got != pins[i] {
			t.Errorf("drifted — every stored verdict for this client is orphaned:\n got %s\npin %s", got, pins[i])
		}
	}
}

// TestWorkloadVeneerFingerprints: every lock in the registry, across
// the thread/iteration shapes the matrix and suite use, builds the
// identical program through the workload seam.
func TestWorkloadVeneerFingerprints(t *testing.T) {
	shapes := []struct{ nthreads, iters int }{{1, 1}, {2, 1}, {3, 1}, {2, 2}}
	var progs []*vprog.Program
	for _, alg := range locks.All() {
		spec := alg.DefaultSpec()
		for _, s := range shapes {
			progs = append(progs, harness.MutexClient(alg, spec, s.nthreads, s.iters))
		}
	}
	samePinned(t, "client/mutex/", progs)
}

// TestWorkloadVeneerFingerprintsRW: the reader-writer shapes.
func TestWorkloadVeneerFingerprintsRW(t *testing.T) {
	alg := locks.ByName("rw")
	if alg == nil {
		t.Fatal("rw lock missing from the registry")
	}
	spec := alg.DefaultSpec()
	var progs []*vprog.Program
	for _, s := range []struct{ w, r, iters int }{{1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {2, 1, 2}} {
		progs = append(progs, harness.RWClient(alg, spec, s.w, s.r, s.iters))
	}
	samePinned(t, "client/rw/", progs)
}

// TestWorkloadVeneerFingerprintsRecursive: the re-entrant client.
func TestWorkloadVeneerFingerprintsRecursive(t *testing.T) {
	alg := locks.ByName("recspin")
	if alg == nil {
		t.Fatal("recspin lock missing from the registry")
	}
	spec := alg.DefaultSpec()
	var progs []*vprog.Program
	for n := 1; n <= 3; n++ {
		progs = append(progs, workload.Program(workload.Recursive(alg), spec, n))
	}
	samePinned(t, "client/recursive/", progs)
}
