package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestCompactDedupsAndPreservesVerdicts: duplicate records (racing
// processes append the same verdict before either re-scans) are the
// compaction's main local target; the rewrite must drop them without
// losing a verdict, and a fresh session must load the compacted log.
func TestCompactDedupsAndPreservesVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), "p"); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate duplicate records by appending raw encodings directly —
	// the on-disk state two unsynchronized writers can legitimately
	// produce on a no-flock platform.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := encodeRecord(currentEpoch(), testKey(i).Hash(), verdictFor(i), "dup")
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dropped, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != n {
		t.Fatalf("compact dropped %d records, want the %d duplicates", dropped, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Lookup(testKey(i)); !ok || v != verdictFor(i) {
			t.Fatalf("verdict %d lost in compaction: (%v, %v)", i, v, ok)
		}
	}
	// Compacting a tight log is a no-op.
	if dropped, err := s.Compact(); err != nil || dropped != 0 {
		t.Fatalf("second compact = (%d, %v), want (0, nil)", dropped, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Loaded != n || s2.Stats().Corrupted != 0 {
		t.Fatalf("compacted log reloads as %+v, want %d clean records", s2.Stats(), n)
	}
}

// TestCompactEnforcesStaleBudget: an explicit Compact applies the same
// oldest-first foreign-epoch retention the open-time scan does.
func TestCompactEnforcesStaleBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	oldEpoch := currentEpoch()
	oldBudget := staleRetainBytes
	defer func() { codeEpoch = oldEpoch; staleRetainBytes = oldBudget }()

	// Write records under a foreign epoch.
	codeEpoch = graph.Hash128{oldEpoch[0] ^ 1, oldEpoch[1]}
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	recLen := 0
	for i := 0; i < 10; i++ {
		if err := s.Put(testKey(i), core.OK, "old"); err != nil {
			t.Fatal(err)
		}
		recLen = headerSize + payloadFixed + len("old") + 4
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Back to the real epoch with a budget for ~3 foreign records.
	codeEpoch = oldEpoch
	staleRetainBytes = 3 * recLen
	s, err = OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Open-time compaction already enforced the budget.
	if st := s.Stats(); st.Stale > 3 {
		t.Fatalf("open retained %d stale records over a 3-record budget", st.Stale)
	}
	// A further Compact is then a no-op.
	if dropped, err := s.Compact(); err != nil || dropped != 0 {
		t.Fatalf("compact after open-time enforcement = (%d, %v), want (0, nil)", dropped, err)
	}
}
