package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = 0x54534554 // "TEST"

// TestNextClassifiesDamage: every proper prefix of a record is
// truncated, every single-bit flip is corrupt (bad magic when the flip
// is in the magic), and neither ever yields a payload.
func TestNextClassifiesDamage(t *testing.T) {
	payload := []byte("one framed payload")
	rec := Append(nil, testMagic, payload)
	if len(rec) != len(payload)+Overhead {
		t.Fatalf("record is %d bytes, want payload + %d", len(rec), Overhead)
	}
	two := Append(append([]byte(nil), rec...), testMagic, []byte{7})
	p, rest, err := Next(two, testMagic, 64)
	if err != nil || !bytes.Equal(p, payload) || len(rest) != 1+Overhead {
		t.Fatalf("first record: payload %q, %d bytes left, err %v", p, len(rest), err)
	}
	if p, rest, err = Next(rest, testMagic, 64); err != nil || !bytes.Equal(p, []byte{7}) || len(rest) != 0 {
		t.Fatalf("second record: payload %v, %d bytes left, err %v", p, len(rest), err)
	}

	for cut := 1; cut < len(rec); cut++ {
		if _, _, err := Next(rec[:cut], testMagic, 64); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v, want truncated", cut, err)
		}
	}
	for off := 0; off < len(rec); off++ {
		mut := append([]byte(nil), rec...)
		mut[off] ^= 0x10
		_, _, err := Next(mut, testMagic, 64)
		switch {
		case off < 4:
			if !errors.Is(err, ErrMagic) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip in the magic at %d: %v, want bad magic (a kind of corrupt)", off, err)
			}
		case off < HeaderSize:
			// A flipped length promises too much (truncated) or is out of
			// bounds or fails the CRC (corrupt); never a record.
			if err == nil {
				t.Fatalf("flip in the length at %d yielded a record", off)
			}
		default:
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMagic) {
				t.Fatalf("flip at %d: %v, want corrupt", off, err)
			}
		}
	}
	if _, _, err := Next([]byte("TEX"), testMagic, 64); !errors.Is(err, ErrMagic) {
		t.Fatalf("short non-prefix of the magic: %v, want bad magic", err)
	}
	if _, _, err := Next(rec, testMagic, len(payload)-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload over the bound: %v, want corrupt", err)
	}
	if _, _, err := Next(Append(nil, testMagic, nil), testMagic, 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty payload: %v, want corrupt", err)
	}
}

// TestCursorCanonical: the cursor reads back what the writers wrote,
// sticks at its first error, and refuses the encodings the writers
// never produce.
func TestCursorCanonical(t *testing.T) {
	h := [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}
	b := []byte{9}
	b = AppendBool(b, true)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -77)
	b = AppendStr(b, "name")
	b = AppendHash128(b, h)
	b = binary.AppendUvarint(b, 2)
	b = append(b, 0xaa, 0xbb)
	c := NewCursor(b, "test")
	if c.Byte() != 9 || !c.Bool() || c.Uvarint() != 300 || c.Varint() != -77 || c.Str() != "name" || c.Hash128() != h || c.Count("item") != 2 {
		t.Fatalf("round trip failed: %v", c.Err())
	}
	if c.Offset() != len(b)-2 || c.End() == nil {
		t.Fatalf("offset %d of %d; End with two bytes unread: %v", c.Offset(), len(b), c.Err())
	}
	c = NewCursor(b, "test")
	c.Byte()
	c.Bool()
	if rest := c.Rest(); len(rest) != len(b)-2 || c.End() != nil {
		t.Fatalf("Rest returned %d bytes, End %v", len(rest), c.Err())
	}

	for name, bad := range map[string][]byte{
		"overlong uvarint": {0x80, 0x00},
		"endless uvarint":  {0x80, 0x80},
		"empty":            {},
	} {
		c := NewCursor(bad, "test")
		if c.Uvarint(); c.Err() == nil {
			t.Errorf("%s decoded", name)
		}
	}
	c = NewCursor([]byte{2}, "test")
	if c.Bool(); c.Err() == nil {
		t.Error("boolean 2 decoded")
	}
	c = NewCursor([]byte{5, 'a'}, "test")
	if s := c.Str(); s != "" || c.Err() == nil {
		t.Errorf("string longer than its input decoded to %q", s)
	}
	first := c.Err()
	if c.Byte() != 0 || c.Uvarint() != 0 || c.Rest() != nil || c.Err() != first {
		t.Error("a failed cursor kept reading or changed its error")
	}
}

// TestReplaceFile: the target is replaced whole, and a failure before
// the rename leaves it untouched with no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := ReplaceFile(path, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := ReplaceFile(path, []byte("new"), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing hook: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed replace changed the target to %q", got)
	}
	called := false
	if err := ReplaceFile(path, []byte("new"), func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("replace: %v, hook called %v", err, called)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("target holds %q after a successful replace", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	if err := ReplaceFile(filepath.Join(dir, "missing", "target"), nil, nil); err == nil {
		t.Fatal("replace in a missing directory succeeded")
	}
}
