package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/graph"
)

func testKey(i int) Key {
	return Key{
		Model: "wmm",
		Spec:  graph.Hash128{uint64(i), uint64(i) * 3},
		Prog:  graph.Hash128{uint64(i) * 7, uint64(i) * 11},
	}
}

// all yields the position in the image of every indexed record's
// identity, in no particular order.
func (t *table) all() iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, p := range t.slots {
			if p != 0 && !yield(int(p)) {
				return
			}
		}
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
	// The same 32 digits every CLI prints in its "store:" banner.
	t.Logf("code epoch %016x%016x", CodeEpoch()[0], CodeEpoch()[1])
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

// fillerLog writes a log of n current-epoch records shaped like the
// benchmark of record's filler (random keys, 15-byte names, 63 bytes a
// record) and returns its path.
func fillerLog(tb testing.TB, n int) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < n; i++ {
		key := graph.Hash128{rng.Uint64(), rng.Uint64()}
		buf = append(buf, encodeRecord(currentEpoch(), key, verdictFor(rng.Intn(3)), fmt.Sprintf("filler/%08x", rng.Uint32()))...)
	}
	path := filepath.Join(tb.TempDir(), "verdicts.log")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkOpen200k opens the warm log of the benchmark of record's
// suite-warm row: what every -store process pays before its first
// lookup.
func BenchmarkOpen200k(b *testing.B) {
	const n = 200_000
	path := fillerLog(b, n)
	b.ReportAllocs()
	var open time.Duration
	for b.Loop() {
		s, err := OpenShared(path, nil)
		if err != nil || s.Stats().Loaded != n {
			b.Fatalf("open: %v, %+v", err, s.Stats())
		}
		open += s.Stats().OpenTime
		s.Close()
	}
	b.ReportMetric(float64(open.Nanoseconds())/float64(b.N)/n, "ns/record")
}

// The reference loader: the list-and-map loader this package used
// before the image and offset table, moved here verbatim (scanLog,
// decodePayload, and the loops of openLocked, refreshLocked and
// compactLocked over their result). It shares frame.Next with the
// session and nothing else; the differential tests below hold the
// session to it byte for byte.

type entry struct {
	v    core.Verdict
	name string
}

type parsedRecord struct {
	start, end int // byte span within the scanned slice
	id         recordID
	v          core.Verdict
	name       string
	decodable  bool // false: CRC-valid but a record version this build cannot parse
}

func scanLog(data []byte) ([]parsedRecord, int, error) {
	var recs []parsedRecord
	valid := 0
	for valid < len(data) {
		payload, rest, err := frame.Next(data[valid:], recordMagic, maxPayload)
		if err != nil {
			return recs, valid, err
		}
		r := parsedRecord{start: valid, end: len(data) - len(rest)}
		r.id.epoch, r.id.key, r.v, r.name, r.decodable = decodePayload(payload)
		recs = append(recs, r)
		valid = r.end
	}
	return recs, valid, nil
}

func decodePayload(p []byte) (epoch, key graph.Hash128, v core.Verdict, name string, ok bool) {
	if len(p) < payloadFixed || p[0] != recordVersion {
		return epoch, key, v, "", false
	}
	epoch[0] = binary.LittleEndian.Uint64(p[1:])
	epoch[1] = binary.LittleEndian.Uint64(p[9:])
	key[0] = binary.LittleEndian.Uint64(p[17:])
	key[1] = binary.LittleEndian.Uint64(p[25:])
	v = core.Verdict(p[33])
	if !decisive(v) {
		return epoch, key, 0, "", false
	}
	nameLen := int(binary.LittleEndian.Uint16(p[34:]))
	if payloadFixed+nameLen != len(p) {
		return epoch, key, 0, "", false
	}
	return epoch, key, v, string(p[payloadFixed:]), true
}

// refState is what the reference makes of a log: the session fields
// and Stats counters the old loader kept.
type refState struct {
	index                           map[recordID]entry
	scanned                         int // end of the trusted prefix
	loaded, stale, corrupted, fresh int
	staleBytes                      int
	notAStore                       bool
}

// refLoad is the old openLocked over data.
func refLoad(data []byte) refState {
	recs, valid, scanErr := scanLog(data)
	if notAStore(valid, scanErr) {
		return refState{notAStore: true}
	}
	ref := refState{index: make(map[recordID]entry, len(recs))}
	cur := currentEpoch()
	for _, r := range recs {
		if r.decodable && r.id.epoch == cur {
			ref.loaded++
		} else {
			ref.stale++
			ref.staleBytes += r.end - r.start
		}
		if r.decodable {
			if _, dup := ref.index[r.id]; !dup {
				ref.index[r.id] = entry{r.v, r.name}
			}
		}
	}
	ref.scanned = valid
	ref.corrupted = len(data) - valid
	return ref
}

// refresh is the old refreshLocked over the bytes a peer appended.
func (ref *refState) refresh(buf []byte) {
	recs, valid, _ := scanLog(buf)
	cur := currentEpoch()
	for _, r := range recs {
		if !r.decodable {
			ref.stale++
			ref.staleBytes += r.end - r.start
			continue
		}
		if _, dup := ref.index[r.id]; dup {
			continue
		}
		ref.index[r.id] = entry{r.v, r.name}
		if r.id.epoch == cur {
			ref.fresh++
		} else {
			ref.stale++
			ref.staleBytes += r.end - r.start
		}
	}
	ref.scanned += valid
	ref.corrupted += len(buf) - valid
}

// refCompact is the old compactLocked over a trusted log: the bytes
// the rewrite keeps and how many records it drops.
func refCompact(data []byte) ([]byte, int) {
	recs, _, _ := scanLog(data)
	cur := currentEpoch()
	type span struct {
		start, end int
		live       bool
	}
	seen := make(map[recordID]bool, len(recs))
	spans := make([]span, 0, len(recs))
	staleBytes := 0
	dropped := 0
	for _, r := range recs {
		if r.decodable {
			if seen[r.id] {
				dropped++
				continue
			}
			seen[r.id] = true
		}
		live := r.decodable && r.id.epoch == cur
		if !live {
			staleBytes += r.end - r.start
		}
		spans = append(spans, span{r.start, r.end, live})
	}
	if staleBytes > staleRetainBytes {
		for i := range spans {
			if spans[i].live {
				continue
			}
			staleBytes -= spans[i].end - spans[i].start
			spans[i].end = spans[i].start
			dropped++
			if staleBytes <= staleRetainBytes {
				break
			}
		}
	}
	var buf []byte
	for _, sp := range spans {
		buf = append(buf, data[sp.start:sp.end]...)
	}
	return buf, dropped
}

// refMerge says what merging src into a log the reference loaded as
// dst must append and report. First record wins across destination and
// source alike, so the result reloads to what the session then serves.
func refMerge(dst refState, src []byte) ([]byte, MergeStats) {
	var ms MergeStats
	var add []byte
	recs, _, _ := scanLog(src)
	seen := map[recordID]core.Verdict{}
	for id, e := range dst.index {
		seen[id] = e.v
	}
	for _, r := range recs {
		ms.Scanned++
		switch prev, dup := seen[r.id]; {
		case !r.decodable:
			ms.Skipped++
		case !dup:
			seen[r.id] = r.v
			add = append(add, src[r.start:r.end]...)
			ms.Added++
		case prev == r.v:
			ms.Duplicates++
		default:
			ms.Conflicts++
		}
	}
	return add, ms
}

// reseal recomputes a record's checksum after its payload was edited,
// so only payload validation can refuse it.
func reseal(rec []byte) []byte {
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[headerSize:len(rec)-4]))
	return rec
}

const genKeys = 24 // the generator's key pool: small, so identities repeat

// genRecord draws one record of the mix the loader must tell apart:
// this build's epoch and two foreign ones over a small key pool, so
// identities repeat — agreeing and conflicting, under names that differ
// every time — empty and maximal names, two record versions this build
// cannot parse, and a forged verdict byte under a valid checksum.
func genRecord(rng *rand.Rand) []byte {
	k := rng.Intn(genKeys)
	key := testKey(k).Hash()
	epoch := currentEpoch()
	if rng.Intn(3) == 0 {
		epoch = testHash(50 + rng.Intn(2))
	}
	v := verdictFor(k + rng.Intn(4)/3) // one in four contradicts the key's usual verdict
	name := fmt.Sprintf("cell-%d/%06x", k, rng.Intn(1<<24))
	switch rng.Intn(8) {
	case 0:
		name = ""
	case 1:
		name = strings.Repeat("n", 4090) + name[:6]
	}
	rec := encodeRecord(epoch, key, v, name)
	switch rng.Intn(12) {
	case 0:
		return encodeV1Record(key, v, name[:min(len(name), 30)])
	case 1:
		rec[headerSize] = recordVersion + 1
		return reseal(rec)
	case 2:
		rec[recIDOff+idSize] = 0x7f
		return reseal(rec)
	}
	return rec
}

// genLog concatenates up to max generated records and, one time in
// three, damages the result: a flipped bit anywhere, or a cut.
func genLog(rng *rand.Rand, max int) []byte {
	var data []byte
	for n := rng.Intn(max + 1); n > 0; n-- {
		data = append(data, genRecord(rng)...)
	}
	if len(data) > 0 {
		switch rng.Intn(6) {
		case 0:
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		case 1:
			data = data[:rng.Intn(len(data))]
		}
	}
	return data
}

// genIDs is every identity genRecord can emit.
func genIDs() []recordID {
	var ids []recordID
	for k := 0; k < genKeys; k++ {
		for _, e := range []graph.Hash128{currentEpoch(), testHash(50), testHash(51)} {
			ids = append(ids, recordID{e, testKey(k).Hash()})
		}
	}
	return ids
}

// checkView fails unless the session serves exactly what the reference
// holds — every identity's verdict and name, present or absent, through
// both lookups — and its image is the file, which is the trusted prefix
// the reference found.
func checkView(t *testing.T, what string, s *Session, ref refState) {
	t.Helper()
	if s.Len() != len(ref.index) {
		t.Fatalf("%s: Len = %d, reference indexes %d", what, s.Len(), len(ref.index))
	}
	if 2*s.tab.n > len(s.tab.slots) {
		t.Fatalf("%s: table holds %d records in %d slots", what, s.tab.n, len(s.tab.slots))
	}
	for pos := range s.tab.all() {
		id := s.img[pos:]
		if _, ok := ref.index[recordID{
			graph.Hash128{binary.LittleEndian.Uint64(id), binary.LittleEndian.Uint64(id[8:])},
			graph.Hash128{binary.LittleEndian.Uint64(id[16:]), binary.LittleEndian.Uint64(id[24:])},
		}]; !ok {
			t.Fatalf("%s: indexes %x, which the reference does not", what, s.img[pos:pos+idSize])
		}
	}
	ids := genIDs() // for the misses; the hits are the reference's own
	for id := range ref.index {
		ids = append(ids, id)
	}
	for _, id := range ids {
		want, wantOK := ref.index[id]
		if v, name, ok := s.LookupEpoch(id.epoch, id.key); ok != wantOK || v != want.v || name != want.name {
			t.Fatalf("%s: LookupEpoch(%x) = (%v, %q, %v), reference (%v, %q, %v)", what, id.key, v, name, ok, want.v, want.name, wantOK)
		}
	}
	for k := 0; k < genKeys; k++ {
		want, wantOK := ref.index[recordID{currentEpoch(), testKey(k).Hash()}]
		if v, ok := s.Lookup(testKey(k)); ok != wantOK || v != want.v {
			t.Fatalf("%s: Lookup(key %d) = (%v, %v), reference (%v, %v)", what, k, v, ok, want.v, wantOK)
		}
	}
	file, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.img, file) || len(file) != ref.scanned {
		t.Fatalf("%s: image %d bytes, file %d bytes, reference trusts %d", what, len(s.img), len(file), ref.scanned)
	}
}

// checkCounters compares the accounting of the scans.
func checkCounters(t *testing.T, what string, s *Session, ref refState) {
	t.Helper()
	st := s.Stats()
	if st.Loaded != ref.loaded || st.Stale != ref.stale || st.Corrupted != ref.corrupted || st.Refreshed != ref.fresh || s.staleBytes != int64(ref.staleBytes) {
		t.Fatalf("%s: loaded %d, stale %d (%d bytes), corrupted %d, refreshed %d; reference %d, %d (%d bytes), %d, %d",
			what, st.Loaded, st.Stale, s.staleBytes, st.Corrupted, st.Refreshed, ref.loaded, ref.stale, ref.staleBytes, ref.corrupted, ref.fresh)
	}
}

// openAgainstRef writes data as the log at path and opens it, holding
// the session to the reference: refused together, the file untouched;
// or opened to the same view, the same counters and the same healed
// (and, over the retention budget, compacted) file. It returns nil for
// a refused log.
func openAgainstRef(t *testing.T, what, path string, data []byte) (*Session, refState) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := refLoad(data)
	s, err := OpenShared(path, nil)
	if ref.notAStore {
		if after, _ := os.ReadFile(path); err == nil || !bytes.Equal(after, data) {
			t.Fatalf("%s: a log the reference refuses opened (%v) or was modified", what, err)
		}
		return nil, ref
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if ref.staleBytes > staleRetainBytes {
		// Over the retention budget the open compacts, and reopens on
		// the rewrite.
		kept, _ := refCompact(data[:ref.scanned])
		corrupted := ref.corrupted
		ref = refLoad(kept)
		ref.corrupted = corrupted
	}
	checkView(t, what, s, ref)
	checkCounters(t, what, s, ref)
	return s, ref
}

// appendRaw appends bytes to the log behind every session's back, as a
// peer process (or one that crashed mid-record) would.
func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func readLog(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiffLoad: over seeded logs, a session opens to what the reference
// loader makes of the same bytes, and stays equal to it through a put
// of every kind, a refresh over a peer's appends, a merge and a
// compaction.
func TestDiffLoad(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	dir := t.TempDir()
	path, srcPath := filepath.Join(dir, "v.log"), filepath.Join(dir, "src.log")
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		what := fmt.Sprintf("seed %d", seed)
		s, ref := openAgainstRef(t, what, path, genLog(rng, 40))
		if s == nil {
			continue
		}

		// Put: new, agreeing, contradicting and foreign-epoch, each
		// judged by what the reference holds for the identity.
		for i := 0; i < 6; i++ {
			id := genIDs()[rng.Intn(3*genKeys)]
			v, name := verdictFor(rng.Intn(3)), fmt.Sprintf("put-%d", i)
			want, wantStale, wantErr := readLog(t, path), s.stats.Stale, error(nil)
			if prev, dup := ref.index[id]; !dup {
				want = append(want, encodeRecord(id.epoch, id.key, v, name)...)
				if id.epoch != currentEpoch() {
					wantStale++
				}
			} else if prev.v != v {
				wantErr = ErrConflict
			}
			if err := s.PutRaw(id.epoch, id.key, v, name); !errors.Is(err, wantErr) || !bytes.Equal(readLog(t, path), want) || s.stats.Stale != wantStale {
				t.Fatalf("%s: put %d: %v, want %v; log %d bytes, want %d; %d stale, want %d",
					what, i, err, wantErr, len(readLog(t, path)), len(want), s.stats.Stale, wantStale)
			}
			ref = refLoad(want)
			checkView(t, what+" after put", s, ref)
		}

		// Refresh: a peer appends a generated log — duplicates, other
		// epochs, perhaps a torn tail — behind the session's back.
		ref.loaded, ref.stale, ref.staleBytes = s.stats.Loaded, s.stats.Stale, int(s.staleBytes)
		ref.corrupted = s.stats.Corrupted
		tail := genLog(rng, 12)
		appendRaw(t, path, tail)
		ref.refresh(tail)
		if n, err := s.Refresh(); err != nil || n != ref.fresh {
			t.Fatalf("%s: Refresh = (%d, %v), reference saw %d fresh verdicts", what, n, err, ref.fresh)
		}
		checkView(t, what+" after refresh", s, ref)
		checkCounters(t, what+" after refresh", s, ref)

		// Merge: the source is a generated log of its own.
		src := genLog(rng, 30)
		if err := os.WriteFile(srcPath, src, 0o644); err != nil {
			t.Fatal(err)
		}
		before := readLog(t, path)
		add, wantMS := refMerge(ref, src)
		ms, err := s.Merge(srcPath)
		if refLoad(src).notAStore {
			if err == nil {
				t.Fatalf("%s: merged a source the reference refuses", what)
			}
			add = nil
		} else if err != nil || ms != wantMS {
			t.Fatalf("%s: Merge = (%+v, %v), reference %+v", what, ms, err, wantMS)
		}
		if after := readLog(t, path); !bytes.Equal(after, append(before, add...)) {
			t.Fatalf("%s: merge left %d bytes, reference appends %d to %d", what, len(after), len(add), len(before))
		}
		checkView(t, what+" after merge", s, refLoad(readLog(t, path)))

		// Compact, some of the time under a retention budget tight
		// enough to bite: the rewrite is the reference's, byte for byte,
		// and the session reopens on it.
		budget := staleRetainBytes
		if rng.Intn(2) == 0 {
			staleRetainBytes = 200 + rng.Intn(5000)
		}
		want, wantDropped := refCompact(readLog(t, path))
		dropped, err := s.Compact()
		staleRetainBytes = budget
		if err != nil || dropped != wantDropped || !bytes.Equal(readLog(t, path), want) {
			t.Fatalf("%s: Compact = (%d, %v) leaving %d bytes, reference drops %d leaving %d", what, dropped, err, len(readLog(t, path)), wantDropped, len(want))
		}
		checkView(t, what+" after compact", s, refLoad(want))
		if dropped > 0 {
			// A rewrite reopens the session, so its scan counters are
			// the new file's — apart from what earlier scans discarded.
			ref = refLoad(want)
			ref.corrupted, ref.fresh = s.stats.Corrupted, s.stats.Refreshed
			checkCounters(t, what+" after compact", s, ref)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffTearSweep: a log whose last record is cut at every byte offset
// opens to what the reference makes of it and heals to the same file —
// the last record being each shape the loader tells apart, the maximal
// name included.
func TestDiffTearSweep(t *testing.T) {
	key := testKey(3).Hash()
	otherVersion := encodeRecord(currentEpoch(), key, core.OK, "tail")
	otherVersion[headerSize] = recordVersion + 1
	forged := encodeRecord(currentEpoch(), key, core.OK, "tail")
	forged[recIDOff+idSize] = 0x7f
	lasts := [][]byte{
		encodeRecord(currentEpoch(), key, core.OK, "tail"),
		encodeRecord(currentEpoch(), key, core.OK, ""),
		encodeRecord(testHash(50), key, core.OK, "tail"),
		encodeV1Record(key, core.OK, "tail"),
		reseal(otherVersion),
		reseal(forged),
	}
	if !testing.Short() {
		lasts = append(lasts, encodeRecord(currentEpoch(), key, core.OK, strings.Repeat("n", 4096)))
	}
	path := filepath.Join(t.TempDir(), "v.log")
	for i, last := range lasts {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		var head []byte
		for n := rng.Intn(6); n > 0; n-- {
			head = append(head, genRecord(rng)...)
		}
		for cut := 0; cut <= len(last); cut++ {
			data := append(head[:len(head):len(head)], last[:cut]...)
			if s, _ := openAgainstRef(t, fmt.Sprintf("last record %d cut at %d of %d", i, cut, len(last)), path, data); s != nil {
				s.Close()
			}
		}
	}
}

// TestDiffSessions: two sessions and a raw appender share one log, each
// step a random one of put, refresh, merge, compact or a peer's raw
// append (sometimes torn). A session that has just taken the file lock
// is level with the file, so after each of its operations it serves
// what the reference loads from the file as it then is.
func TestDiffSessions(t *testing.T) {
	rounds, steps := 40, 30
	if testing.Short() {
		rounds = 6
	}
	dir := t.TempDir()
	path, srcPath := filepath.Join(dir, "v.log"), filepath.Join(dir, "src.log")
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(2000 + round)))
		var head []byte
		for n := rng.Intn(10); n > 0; n-- {
			head = append(head, genRecord(rng)...)
		}
		if err := os.WriteFile(path, head, 0o644); err != nil {
			t.Fatal(err)
		}
		var ss [2]*Session
		for i := range ss {
			s, err := OpenShared(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = s
		}
		for step := 0; step < steps; step++ {
			s := ss[rng.Intn(2)]
			what := fmt.Sprintf("round %d step %d", round, step)
			var err error
			switch op := rng.Intn(6); op {
			case 0, 1:
				id := genIDs()[rng.Intn(3*genKeys)]
				if err = s.PutRaw(id.epoch, id.key, verdictFor(rng.Intn(3)), what); errors.Is(err, ErrConflict) {
					err = nil
				}
				if _, _, ok := s.lookupLocked(id); !ok {
					t.Fatalf("%s: put identity not served", what)
				}
				// The fast path answers a known identity without the file
				// lock; only a refresh makes the session level again.
				if err == nil {
					_, err = s.Refresh()
				}
			case 2:
				_, err = s.Refresh()
			case 3:
				if werr := os.WriteFile(srcPath, genLog(rng, 10), 0o644); werr != nil {
					t.Fatal(werr)
				}
				if _, err = s.Merge(srcPath); err != nil && refLoad(readLog(t, srcPath)).notAStore {
					err = nil
				}
			case 4:
				_, err = s.Compact()
			case 5:
				rec := genRecord(rng)
				if rng.Intn(3) == 0 {
					rec = rec[:rng.Intn(len(rec))]
				}
				appendRaw(t, path, rec)
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkView(t, what, s, refLoad(readLog(t, path)))
		}
		for _, s := range ss {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOpenShortRead: the open sizes the file and then reads it, and on a
// platform without flock a compacting peer can shrink it in between.
// The read then returns fewer bytes than were asked for; those are
// scanned like any log — the bytes that never arrived are not trusted
// as zeroes, and nothing fails.
func TestOpenShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	var data []byte
	for i := 0; i < 5; i++ {
		data = append(data, encodeRecord(currentEpoch(), testKey(i).Hash(), verdictFor(i), "short-read")...)
	}
	for _, cut := range []int{0, 7, len(data) / 5, len(data)} {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		s := &Session{path: path}
		if err := s.loadLocked(f, int64(len(data))); err != nil { // the size the file had when it was sized
			t.Fatalf("cut %d: %v", cut, err)
		}
		ref := refLoad(data[:len(data)-cut])
		checkView(t, fmt.Sprintf("cut %d", cut), s, ref)
		checkCounters(t, fmt.Sprintf("cut %d", cut), s, ref)
		if st := s.Stats(); st.OpenBytes != int64(len(data)-cut) {
			t.Fatalf("cut %d: scanned %d bytes of a %d-byte file", cut, st.OpenBytes, len(data)-cut)
		}
		f.Close()
	}
}

// TestLogSizeLimit: positions in the image are 32-bit, so a log past
// the bound is an explicit error wherever it would come about — at
// open, at Put, at Merge, at a Refresh over a peer's appends — that
// leaves the file as it was and the session serving what it served.
func TestLogSizeLimit(t *testing.T) {
	limit := maxLogBytes
	defer func() { maxLogBytes = limit }()
	dir := t.TempDir()
	path, srcPath := filepath.Join(dir, "v.log"), filepath.Join(dir, "src.log")
	rec := func(i int) []byte {
		return encodeRecord(currentEpoch(), testKey(i).Hash(), verdictFor(i), "limit")
	}
	recLen := int64(len(rec(0)))

	var data []byte
	for i := 0; i < 10; i++ {
		data = append(data, rec(i)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	maxLogBytes = 10*recLen - 1
	if _, err := OpenShared(path, nil); err == nil || !bytes.Equal(readLog(t, path), data) {
		t.Fatalf("open of a log one byte over the bound: %v, file modified: %v", err, !bytes.Equal(readLog(t, path), data))
	}

	maxLogBytes = 12 * recLen
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	served := func(what string, n int) {
		t.Helper()
		want := readLog(t, path)
		if s.Len() != n || !bytes.Equal(s.img, want[:len(s.img)]) {
			t.Fatalf("%s: session indexes %d records, want %d", what, s.Len(), n)
		}
		for i := 0; i < n; i++ {
			if v, ok := s.Lookup(testKey(i)); !ok || v != verdictFor(i) {
				t.Fatalf("%s: verdict %d = (%v, %v)", what, i, v, ok)
			}
		}
	}
	// Two more records fit exactly; the third does not.
	for i := 10; i < 13; i++ {
		before := readLog(t, path)
		err := s.Put(testKey(i), verdictFor(i), "limit")
		if i < 12 && err != nil {
			t.Fatalf("put %d under the bound: %v", i, err)
		}
		if i == 12 && (err == nil || errors.Is(err, ErrConflict) || !bytes.Equal(readLog(t, path), before)) {
			t.Fatalf("put over the bound: %v, file modified: %v", err, !bytes.Equal(readLog(t, path), before))
		}
	}
	served("after a refused put", 12)
	if err := s.Put(testKey(3), verdictFor(3), "limit"); err != nil {
		t.Fatalf("agreeing put into a full log: %v", err)
	}

	// A merge whose first new record fits and whose second does not adds
	// neither.
	maxLogBytes = 13 * recLen
	if err := os.WriteFile(srcPath, append(append(rec(5), rec(20)...), rec(21)...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readLog(t, path)
	if ms, err := s.Merge(srcPath); err == nil || ms.Added != 0 || !bytes.Equal(readLog(t, path), before) {
		t.Fatalf("merge over the bound: %+v, %v, file modified: %v", ms, err, !bytes.Equal(readLog(t, path), before))
	}
	served("after a refused merge", 12)
	if _, ok := s.Lookup(testKey(20)); ok {
		t.Fatal("a record of the refused merge is served")
	}

	// A peer with a wider bound grows the file past this session's.
	appendRaw(t, path, append(rec(30), rec(31)...))
	if _, err := s.Refresh(); err == nil {
		t.Fatal("refresh over a log past the bound succeeded")
	}
	served("after a refused refresh", 12)
	maxLogBytes = limit
	if n, err := s.Refresh(); err != nil || n != 2 {
		t.Fatalf("refresh under the real bound = (%d, %v), want the peer's 2 records", n, err)
	}
}

// TestAllocsOpen: opening a log allocates a fixed handful of objects —
// file handles, the image, the table — however many records it holds,
// where the list-and-map loader allocated one and more per record; and
// a warm lookup allocates nothing.
func TestAllocsOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation bars run under make allocs")
	}
	opens := func(n int) float64 {
		path := fillerLog(t, n)
		return testing.AllocsPerRun(5, func() {
			s, err := OpenShared(path, nil)
			if err != nil || s.Stats().Loaded != n {
				t.Fatalf("open of %d records: %v", n, err)
			}
			s.Close()
		})
	}
	small, big := opens(1000), opens(20000)
	// The table is sized from the file's length; a log of unusually
	// short records doubles it once or twice more.
	if big > 40 || big-small > 2 {
		t.Errorf("open allocates %.0f objects for 1,000 records and %.0f for 20,000; want the same, and at most 40", small, big)
	}

	s, err := OpenShared(fillerLog(t, 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(1), core.OK, "warm"); err != nil {
		t.Fatal(err)
	}
	k, miss := testKey(1), testKey(2)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Lookup(k); !ok {
			t.Fatal("warm lookup missed")
		}
		s.Lookup(miss)
	}); n != 0 {
		t.Errorf("a lookup hit and a miss allocate %.0f objects, want 0", n)
	}
}
