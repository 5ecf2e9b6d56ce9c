package store

import (
	"errors"
	"os"
	"testing"

	"repro/internal/core"
)

// TestMemorySession: a memory session is a session without a log. It
// serves what it was given, keeps decisive verdicts only, refuses a
// contradiction, treats Refresh and Close as no-ops, and never touches
// the file system.
func TestMemorySession(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	s := NewMemory()

	if _, ok := s.Lookup(testKey(1)); ok {
		t.Fatal("an empty session served a verdict")
	}
	for i, v := range []core.Verdict{core.OK, core.SafetyViolation, core.ATViolation} {
		if err := s.Put(testKey(i), v, "p"); err != nil {
			t.Fatalf("Put %v: %v", v, err)
		}
	}
	for i, v := range []core.Verdict{core.Error, core.Undecided, core.Canceled} {
		if err := s.Put(testKey(10+i), v, "p"); err != nil {
			t.Fatalf("Put %v: %v", v, err)
		}
	}
	for i := 0; i < 1000; i++ { // grows the table past its first size
		if err := s.Put(testKey(100+i), core.OK, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Refresh(); n != 0 || err != nil {
		t.Errorf("Refresh = %d, %v; want a no-op", n, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// Close changed nothing: the session still serves and takes verdicts.
	for i, want := range []core.Verdict{core.OK, core.SafetyViolation, core.ATViolation} {
		if v, ok := s.Lookup(testKey(i)); !ok || v != want {
			t.Errorf("key %d: Lookup = %v, %v; want %v", i, v, ok, want)
		}
	}
	for i := range 3 {
		if v, ok := s.Lookup(testKey(10 + i)); ok {
			t.Errorf("indecisive verdict kept: key %d served %v", 10+i, v)
		}
	}
	if err := s.Put(testKey(0), core.OK, "p"); err != nil {
		t.Errorf("re-putting a stored verdict: %v", err)
	}
	if err := s.Put(testKey(0), core.SafetyViolation, "p"); !errors.Is(err, ErrConflict) {
		t.Errorf("contradicting Put = %v, want ErrConflict", err)
	}
	if v, _ := s.Lookup(testKey(0)); v != core.OK {
		t.Errorf("the contradiction replaced the stored verdict: %v", v)
	}
	if got, want := s.Len(), 3+1000; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	st := s.Stats()
	if st.Appended != 3+1000 || st.Conflicts != 1 {
		t.Errorf("Stats: %d appended, %d conflicts; want %d and 1", st.Appended, st.Conflicts, 3+1000)
	}

	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("a memory session touched the file system: %v %v", ents, err)
	}
}
