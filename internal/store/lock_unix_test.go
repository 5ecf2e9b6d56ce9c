//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestOpenSharedConcurrentSessions: the multi-writer protocol's
// single-process face. Two live sessions on one log append
// interleaved; each observes the other's verdicts after Refresh, and a
// third session opening afterwards loads the union. flock is per open
// file description, so two sessions in one process exercise the same
// sidecar-lock path two processes would.
func TestOpenSharedConcurrentSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s1, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatalf("second OpenShared of a live store: %v", err)
	}

	// Interleaved appends from both sessions.
	for i := 0; i < 10; i++ {
		s := s1
		if i%2 == 1 {
			s = s2
		}
		if err := s.Put(testKey(i), core.OK, "p"); err != nil {
			t.Fatal(err)
		}
	}

	// Each session sees its own 5 appends immediately; the peer's 5
	// become visible through tail re-scans — partly during s1's own
	// puts (the pre-append refresh), the remainder via explicit
	// Refresh. The cumulative count must be exactly the peer's 5:
	// none lost, none double-counted.
	if _, err := s1.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := s1.Stats().Refreshed; got != 5 {
		t.Fatalf("s1 observed %d concurrent verdicts, want the peer's 5", got)
	}
	for i := 0; i < 10; i++ {
		if v, ok := s1.Lookup(testKey(i)); !ok || v != core.OK {
			t.Fatalf("s1 missing verdict %d after Refresh (ok=%v v=%v)", i, ok, v)
		}
	}
	// A second Refresh with no new writes is a no-op.
	if n, err := s1.Refresh(); err != nil || n != 0 {
		t.Fatalf("idle Refresh = (%d, %v), want (0, nil)", n, err)
	}

	// Lookup on the not-yet-refreshed session also works: Put's
	// pre-append tail re-scan pulls the peer's records in, so a
	// duplicate put from the other session is a no-op, not a second
	// record.
	if err := s2.Put(testKey(0), core.OK, "dup"); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Appended; got != 5 {
		t.Fatalf("s2 appended %d records, want its own 5 (cross-session dup must not append)", got)
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := OpenShared(path, nil)
	if err != nil {
		t.Fatalf("Open after both sessions closed: %v", err)
	}
	defer s3.Close()
	if s3.Stats().Loaded != 10 || s3.Len() != 10 {
		t.Fatalf("reopened store loaded %d records (index %d), want 10", s3.Stats().Loaded, s3.Len())
	}
}

// TestRefreshSeesExternalCompaction: a session must survive another
// process replacing the log file (Compact's atomic rename) by
// detecting the inode change and rescanning.
func TestRefreshSeesExternalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s1, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	for i := 0; i < 4; i++ {
		if err := s1.Put(testKey(i), core.OK, "p"); err != nil {
			t.Fatal(err)
		}
		if err := s1.Put(testKey(i), core.OK, "p"); err != nil {
			t.Fatal(err) // in-memory duplicate, no record
		}
	}
	// Duplicate *records* only arise from racing processes; fabricate
	// one by a raw double-append through a third session's file.
	if _, err := s2.Refresh(); err != nil {
		t.Fatal(err)
	}

	// s1 compacts (dedup rewrite → rename). s2's next operation must
	// notice the replaced inode and keep answering correctly.
	if _, err := s1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(testKey(99), core.SafetyViolation, "late"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if v, ok := s2.Lookup(testKey(i)); !ok || v != core.OK {
			t.Fatalf("s2 lost verdict %d across external compaction (ok=%v v=%v)", i, ok, v)
		}
	}
	if v, ok := s1.Lookup(testKey(99)); ok && v != core.SafetyViolation {
		t.Fatalf("s1 sees wrong verdict for late key: %v", v)
	}
}
