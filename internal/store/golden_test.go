package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// goldenRecords is what testdata/golden.log holds: written by the
// encoder as it was before the record layer moved into internal/frame —
// two records of the epoch the test runs under, between them one of
// another epoch, and a fourth record torn nine bytes short.
var (
	goldenEpoch = graph.Hash128{0x1111111111111111, 0x2222222222222222}
	goldenOld   = graph.Hash128{0x3333333333333333, 0x4444444444444444}

	goldenRecords = []struct {
		epoch, key graph.Hash128
		v          core.Verdict
		name       string
	}{
		{goldenEpoch, graph.Hash128{1, 2}, core.OK, "wmm/golden-ok"},
		{goldenOld, graph.Hash128{3, 4}, core.ATViolation, "wmm/golden-stale"},
		{goldenEpoch, graph.Hash128{5, 6}, core.SafetyViolation, "sc/golden-violation"},
	}
)

// TestGoldenLog: the on-disk format did not move. The log the parent's
// code wrote loads to the same content and heals the same way, and this
// build's encoder — alone and through a session — writes those bytes.
func TestGoldenLog(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.log")
	if err != nil {
		t.Fatal(err)
	}
	saved := currentEpoch()
	codeEpoch = goldenEpoch
	defer func() { codeEpoch = saved }()

	var trusted []byte
	for _, r := range goldenRecords {
		trusted = append(trusted, encodeRecord(r.epoch, r.key, r.v, r.name)...)
	}
	torn := encodeRecord(goldenEpoch, graph.Hash128{7, 8}, core.OK, "wmm/golden-torn")
	torn = torn[:len(torn)-9]
	if !bytes.Equal(append(append([]byte(nil), trusted...), torn...), golden) {
		t.Fatal("this build's encoder does not write the golden bytes")
	}

	path := filepath.Join(t.TempDir(), "v.log")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 2 || st.Stale != 1 || st.Corrupted != len(torn) {
		t.Fatalf("golden log loaded as %+v, want 2 loaded, 1 stale, %d corrupt bytes", st, len(torn))
	}
	for _, r := range goldenRecords {
		if v, name, ok := s.LookupEpoch(r.epoch, r.key); !ok || v != r.v || name != r.name {
			t.Fatalf("record %q loaded as (%v, %q, %v)", r.name, v, name, ok)
		}
	}
	if healed, _ := os.ReadFile(path); !bytes.Equal(healed, trusted) {
		t.Fatal("healing the torn tail did not leave exactly the three whole records")
	}

	fresh := filepath.Join(t.TempDir(), "v.log")
	w, err := OpenShared(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, r := range goldenRecords {
		if err := w.PutRaw(r.epoch, r.key, r.v, r.name); err != nil {
			t.Fatal(err)
		}
	}
	if written, _ := os.ReadFile(fresh); !bytes.Equal(written, trusted) {
		t.Fatal("a session of this build does not write the golden bytes")
	}
}
