package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzStoreLoad feeds arbitrary bytes to the store as an on-disk log.
// The loader's contract under ANY input:
//
//   - OpenShared never panics. It either refuses the file (not a
//     store: the leading-magic gate) leaving it byte-identical, or
//     opens it trusting only the well-formed prefix — in both cases
//     exactly as the reference loader (refLoad) does: the same
//     verdicts and names under the same identities, the same
//     accounting, the same healed file;
//   - every verdict the opened session serves is decisive — damage
//     that keeps a valid CRC must still never surface an Error,
//     Canceled, Undecided or out-of-range verdict byte;
//   - the opened log heals: after one session, a reopen scans clean
//     (no further corruption truncation), and a fresh Put round-trips
//     through the healed log.
func FuzzStoreLoad(f *testing.F) {
	// Seeds: the empty log, well-formed logs of one and two records, a
	// stale-epoch record, and damaged variants — truncations, bit
	// flips, garbage tails, and a non-decisive verdict byte with a
	// recomputed CRC (the scanner sees a "valid" record; decodePayload
	// must still refuse it).
	rec1 := encodeRecord(currentEpoch(), testHash(1), core.OK, "seed-a")
	rec2 := encodeRecord(currentEpoch(), testHash(2), core.SafetyViolation, "seed-b")
	stale := encodeRecord(testHash(40), testHash(3), core.ATViolation, "stale")
	f.Add([]byte{})
	f.Add(rec1)
	f.Add(append(append([]byte{}, rec1...), rec2...))
	f.Add(append(append([]byte{}, rec1...), stale...))
	f.Add(rec1[:len(rec1)-3])
	f.Add(rec1[:7])
	f.Add(append(append([]byte{}, rec1...), rec2[:11]...))
	f.Add(append(append([]byte{}, rec1...), 0xde, 0xad, 0xbe, 0xef))
	flip := append([]byte{}, rec1...)
	flip[headerSize+20] ^= 0x40
	f.Add(flip)
	f.Add(badVerdictRecord())
	f.Add(bytes.Repeat([]byte{0x56}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "verdicts.log")
		// Refused together with the reference loader, the file untouched,
		// or opened to what it makes of the same bytes.
		s, _ := openAgainstRef(t, "fuzz input", path, data)
		if s == nil {
			return
		}
		// Served verdicts must all be decisive, whatever the input was.
		for pos := range s.tab.all() {
			if v := core.Verdict(s.img[pos+idSize]); !decisive(v) {
				t.Fatalf("indexed non-decisive verdict %d for %x", v, s.img[pos:pos+idSize])
			}
		}
		// The log works: a fresh verdict round-trips through it.
		if err := s.Put(testKey(9001), core.OK, "fuzz-probe"); err != nil && !errors.Is(err, ErrConflict) {
			t.Fatalf("put into opened log: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		s2, err := OpenShared(path, nil)
		if err != nil {
			t.Fatalf("healed log refused to reopen: %v", err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.Corrupted != 0 {
			t.Fatalf("reopen after heal still truncated %d bytes", st.Corrupted)
		}
		if v, ok := s2.Lookup(testKey(9001)); ok && v != core.OK {
			t.Fatalf("probe verdict corrupted on reload: %v", v)
		}
	})
}

// badVerdictRecord frames a payload whose verdict byte is not a
// decisive verdict but whose CRC is valid — the forged-record case the
// loader must treat as stale, never serve.
func badVerdictRecord() []byte {
	rec := encodeRecord(currentEpoch(), testHash(4), core.OK, "forged")
	rec[headerSize+33] = 0x7f // verdict byte inside the payload
	// Recompute the CRC so only decodePayload can catch it.
	p := rec[headerSize : len(rec)-4]
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(p))
	return rec
}
