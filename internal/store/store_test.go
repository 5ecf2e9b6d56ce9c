package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func testKey(i int) Key {
	return Key{
		Model: "wmm",
		Spec:  graph.Hash128{uint64(i), uint64(i) * 3},
		Prog:  graph.Hash128{uint64(i) * 7, uint64(i) * 11},
	}
}

func verdictFor(i int) core.Verdict {
	switch i % 3 {
	case 0:
		return core.OK
	case 1:
		return core.SafetyViolation
	default:
		return core.ATViolation
	}
}

// TestRoundTrip writes verdicts, closes, reopens, and expects every one
// back — the across-process-restarts contract.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), fmt.Sprintf("prog-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Loaded; got != n {
		t.Fatalf("reopened store loaded %d records, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, ok := s2.Lookup(testKey(i))
		if !ok {
			t.Fatalf("key %d missing after reopen", i)
		}
		if v != verdictFor(i) {
			t.Fatalf("key %d: verdict %v, want %v", i, v, verdictFor(i))
		}
	}
	st := s2.Stats()
	if st.Hits != n || st.Misses != 0 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 0", st.Hits, st.Misses, n)
	}
}

// TestIndecisiveDropped verifies Error and Canceled are never persisted.
func TestIndecisiveDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), core.Error, "err-prog"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), core.Canceled, "canceled-prog"); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("indecisive verdicts stored: Len = %d", s.Len())
	}
	if _, ok := s.Lookup(testKey(1)); ok {
		t.Fatal("Error verdict served from store")
	}
	s.Close()
	if info, err := os.Stat(path); err != nil || info.Size() != 0 {
		t.Fatalf("log not empty after indecisive puts: size %d err %v", info.Size(), err)
	}
}

// TestDuplicateAndConflict checks the dedupe and unsound-rekey guards.
func TestDuplicateAndConflict(t *testing.T) {
	s, err := OpenShared(filepath.Join(t.TempDir(), "verdicts.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	if err := s.Put(k, core.OK, "p"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, core.OK, "p"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Appended; got != 1 {
		t.Fatalf("duplicate put appended a record: Appended = %d", got)
	}
	if err := s.Put(k, core.SafetyViolation, "p"); err == nil {
		t.Fatal("conflicting decisive verdict accepted silently")
	} else if !errors.Is(err, ErrConflict) {
		// Callers (vsync.VerifyMatrix) tell broken keying apart from
		// plain I/O failures by this sentinel.
		t.Fatalf("conflict error does not wrap ErrConflict: %v", err)
	}
	if v, _ := s.Lookup(k); v != core.OK {
		t.Fatalf("conflict overwrote stored verdict: %v", v)
	}
}

// TestConcurrentWriters hammers one store from many goroutines and
// expects every record to survive a reopen.
func TestConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if err := s.Put(testKey(id), verdictFor(id), fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
				}
				// Interleave lookups of everyone's keys.
				s.Lookup(testKey(i))
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id := 0; id < writers*perWriter; id++ {
		if v, ok := s2.Lookup(testKey(id)); !ok || v != verdictFor(id) {
			t.Fatalf("key %d lost or wrong after concurrent writes: ok=%v v=%v", id, ok, v)
		}
	}
}

// corruptAndReopen writes n records, mutates the file with f, reopens,
// and returns the reopened store.
func corruptAndReopen(t *testing.T, n int, f func([]byte) []byte) *Session {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), fmt.Sprintf("prog-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	return s2
}

// TestTruncatedTail cuts a record in half; the prefix must load, the
// torn record must not, and the file must be healed for appends.
func TestTruncatedTail(t *testing.T) {
	const n = 10
	s := corruptAndReopen(t, n, func(data []byte) []byte {
		return data[:len(data)-7] // tear the last record mid-payload
	})
	st := s.Stats()
	if st.Loaded != n-1 {
		t.Fatalf("loaded %d records from torn log, want %d", st.Loaded, n-1)
	}
	if st.Corrupted == 0 {
		t.Fatal("torn tail not reported in Stats().Corrupted")
	}
	if _, ok := s.Lookup(testKey(n - 1)); ok {
		t.Fatal("torn record trusted")
	}
	// The healed log must accept and round-trip new appends.
	if err := s.Put(testKey(n-1), verdictFor(n-1), "rewritten"); err != nil {
		t.Fatal(err)
	}
	path := s.Path()
	s.Close()
	s3, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Stats().Loaded != n || s3.Stats().Corrupted != 0 {
		t.Fatalf("healed log reloads %d records with %d corrupt bytes, want %d / 0",
			s3.Stats().Loaded, s3.Stats().Corrupted, n)
	}
}

// TestCorruptedTailChecksum flips payload bytes of the last record; the
// checksum must reject it.
func TestCorruptedTailChecksum(t *testing.T) {
	const n = 10
	s := corruptAndReopen(t, n, func(data []byte) []byte {
		data[len(data)-10] ^= 0xff // payload byte of the final record
		return data
	})
	if st := s.Stats(); st.Loaded != n-1 || st.Corrupted == 0 {
		t.Fatalf("checksum-corrupt tail: loaded %d, corrupted %d", st.Loaded, st.Corrupted)
	}
	if _, ok := s.Lookup(testKey(n - 1)); ok {
		t.Fatal("checksum-corrupt record trusted")
	}
}

// TestCorruptedMiddle stops trust at the first bad record even when
// well-formed bytes follow it (a mid-log tear must not resynchronize on
// attacker- or garbage-controlled framing).
func TestCorruptedMiddle(t *testing.T) {
	const n = 10
	var recLen int
	s := corruptAndReopen(t, n, func(data []byte) []byte {
		recLen = len(data) / n
		data[3*recLen] ^= 0xff // break the magic of record 3
		return data
	})
	if st := s.Stats(); st.Loaded != 3 || st.Corrupted != 7*recLen {
		t.Fatalf("mid-log corruption: loaded %d records, %d corrupt bytes (record len %d)",
			st.Loaded, st.Corrupted, recLen)
	}
}

// TestGarbageFile refuses to open (and, crucially, to truncate) a
// non-empty file that was never a store — a mistyped -store path must
// not destroy the user's file.
func TestGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	content := bytes.Repeat([]byte("not a store"), 100)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShared(path, nil); err == nil {
		t.Fatal("opened a file that was never a verdict store")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatal("refused open still modified the file")
	}
}

// TestTornFirstRecord: a store whose very first append tore mid-record
// still opens (the magic prefix identifies it as ours) and heals.
func TestTornFirstRecord(t *testing.T) {
	s := corruptAndReopen(t, 1, func(data []byte) []byte {
		return data[:headerSize+3] // magic + length + a few payload bytes
	})
	if st := s.Stats(); st.Loaded != 0 || st.Corrupted == 0 {
		t.Fatalf("torn-first-record store: loaded %d, corrupted %d", st.Loaded, st.Corrupted)
	}
	if err := s.Put(testKey(1), core.OK, "fresh"); err != nil {
		t.Fatal(err)
	}
}

// encodeV1Record builds a record in the original (pre-code-epoch) v1
// layout: [1B version=1][16B key][1B verdict][2B name len][name].
func encodeV1Record(key graph.Hash128, v core.Verdict, name string) []byte {
	plen := 20 + len(name)
	rec := make([]byte, headerSize+plen+4)
	binary.LittleEndian.PutUint32(rec, recordMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(plen))
	p := rec[headerSize : headerSize+plen]
	p[0] = 1
	binary.LittleEndian.PutUint64(p[1:], key[0])
	binary.LittleEndian.PutUint64(p[9:], key[1])
	p[17] = byte(v)
	binary.LittleEndian.PutUint16(p[18:], uint16(len(name)))
	copy(p[20:], name)
	binary.LittleEndian.PutUint32(rec[headerSize+plen:], crc32.ChecksumIEEE(p))
	return rec
}

// TestV1UpgradeRetainsHistory: opening a store written by the v1
// format must treat its records as stale foreign-version history —
// retained, never served — not as a corrupt tail to truncate. A short
// name makes the v1 payload (20+8=28 bytes) smaller than the v2 fixed
// payload (36), the exact shape a version-blind length bound rejects.
func TestV1UpgradeRetainsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	v1 := encodeV1Record(testKey(1).Hash(), core.OK, "wmm/ttas")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 0 || st.Stale != 1 || st.Corrupted != 0 {
		t.Fatalf("v1 log open: loaded %d, stale %d, corrupted %d, want 0 / 1 / 0",
			st.Loaded, st.Stale, st.Corrupted)
	}
	if _, ok := s.Lookup(testKey(1)); ok {
		t.Fatal("v1 record served by a v2 build")
	}
	if err := s.Put(testKey(2), core.SafetyViolation, "fresh"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != 1 || st.Stale != 1 {
		t.Fatalf("reopen over v1 history: loaded %d, stale %d, want 1 / 1", st.Loaded, st.Stale)
	}
}

// TestShortMagicPrefixHeals: a crash during the very first append can
// leave fewer than 4 bytes on disk. If those bytes are a prefix of the
// record magic the file is ours and torn — it must heal like any torn
// tail, not refuse to open until an operator deletes it.
func TestShortMagicPrefixHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	full := encodeRecord(CodeEpoch(), testKey(1).Hash(), core.OK, "p")
	for n := 1; n < 4; n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenShared(path, nil)
		if err != nil {
			t.Fatalf("%d-byte magic prefix refused instead of healed: %v", n, err)
		}
		if st := s.Stats(); st.Loaded != 0 || st.Corrupted != n {
			t.Fatalf("%d-byte prefix: loaded %d, corrupted %d", n, st.Loaded, st.Corrupted)
		}
		if err := s.Put(testKey(1), core.OK, "fresh"); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2, err := OpenShared(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Stats().Loaded != 1 {
			t.Fatalf("%d-byte prefix: healed log reloads %d records, want 1", n, s2.Stats().Loaded)
		}
		s2.Close()
	}
	// A short file that is NOT a magic prefix stays protected: refuse.
	if err := os.WriteFile(path, []byte("no"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShared(path, nil); err == nil {
		t.Fatal("2 bytes of non-magic garbage opened as a store")
	}
}

// TestPutAfterClose: a late Put must fail cleanly, not crash — it is
// how the cache's write-through failure surfaces.
func TestPutAfterClose(t *testing.T) {
	s, err := OpenShared(filepath.Join(t.TempDir(), "verdicts.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), core.OK, "late"); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

// TestEpochInvalidation simulates a cross-commit edit to
// verification-relevant source: records written under one code epoch
// must not be served by a binary with another (the program fingerprint
// cannot see contended-path edits, so serving them could green-light a
// correctness regression) — but they must be *retained*, so a bisect
// that rebuilds the original epoch flips straight back to a warm
// store instead of silently losing minutes of AMC work.
func TestEpochInvalidation(t *testing.T) {
	if CodeEpoch() == (graph.Hash128{}) {
		t.Fatal("code epoch is zero")
	}
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), fmt.Sprintf("prog-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// "Rebuild" from edited verification source: flip the epoch.
	oldEpoch := codeEpoch
	codeEpoch = graph.Hash128{oldEpoch[0] ^ 1, oldEpoch[1]}
	defer func() { codeEpoch = oldEpoch }()

	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Loaded != 0 || st.Stale != n {
		t.Fatalf("foreign-epoch open: loaded %d, stale %d, want 0 / %d", st.Loaded, st.Stale, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Lookup(testKey(i)); ok {
			t.Fatalf("verdict %d from another code epoch served", i)
		}
	}
	if err := s2.Put(testKey(0), core.OK, "re-verified"); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// "Bisect back": restore the original epoch. The n original records
	// must still be on disk and served again; the flipped-epoch record
	// is now the foreign one.
	codeEpoch = oldEpoch
	s3, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Loaded != n || st.Stale != 1 {
		t.Fatalf("after flip-back: loaded %d, stale %d, want %d / 1", st.Loaded, st.Stale, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s3.Lookup(testKey(i)); !ok || v != verdictFor(i) {
			t.Fatalf("original verdict %d lost across an epoch round-trip: ok=%v v=%v", i, ok, v)
		}
	}
}

// TestStaleRetentionBudget: foreign-epoch history is bounded — once it
// exceeds the retention budget the *oldest* foreign records are
// compacted away (and the newest kept), so a CI-restored store cannot
// grow by a corpus per verification-code commit forever.
func TestStaleRetentionBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	recSize := 0
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), "pppp"); err != nil { // equal-length names => equal record sizes
			t.Fatal(err)
		}
	}
	s.Close()
	if info, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else {
		recSize = int(info.Size()) / n
	}

	oldEpoch := codeEpoch
	oldBudget := staleRetainBytes
	codeEpoch = graph.Hash128{oldEpoch[0] ^ 1, oldEpoch[1]}
	staleRetainBytes = 3 * recSize // room for 3 of the 8 foreign records
	defer func() { codeEpoch = oldEpoch; staleRetainBytes = oldBudget }()

	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Stale != 3 {
		// Stale reports what actually survived the budget — telling the
		// operator 8 records are "retained for flip-backs" when 5 were
		// just compacted away would be a lie.
		t.Fatalf("retained foreign records: %d, want 3", st.Stale)
	}
	if err := s2.Put(testKey(100), core.OK, "new-epoch"); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Back on the original epoch only the 3 newest of the old records
	// survived the budget; the new-epoch record is retained foreign.
	codeEpoch = oldEpoch
	s3, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Loaded != 3 || st.Stale != 1 {
		t.Fatalf("after budgeted compaction: loaded %d, stale %d, want 3 / 1", st.Loaded, st.Stale)
	}
	for i := 0; i < n; i++ {
		_, ok := s3.Lookup(testKey(i))
		if want := i >= n-3; ok != want {
			t.Fatalf("record %d survival = %v, want %v (oldest must be dropped first)", i, ok, want)
		}
	}
}

// TestKeyHashSensitivity ensures every key component changes the
// content address.
func TestKeyHashSensitivity(t *testing.T) {
	base := Key{Model: "wmm", Spec: graph.Hash128{1, 2}, Prog: graph.Hash128{3, 4}}
	variants := []Key{
		{Model: "sc", Spec: base.Spec, Prog: base.Prog},
		{Model: base.Model, Spec: graph.Hash128{1, 5}, Prog: base.Prog},
		{Model: base.Model, Spec: base.Spec, Prog: graph.Hash128{5, 4}},
	}
	for i, k := range variants {
		if k.Hash() == base.Hash() {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
	if base.Hash() != base.Hash() {
		t.Fatal("key hash not deterministic")
	}
}
