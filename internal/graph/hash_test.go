package graph

import (
	"math/rand"
	"testing"
)

// stringRef is Hasher128.String one byte at a time: the definition the
// word-at-a-time fold must reproduce bit for bit, since every stored
// verdict's key and the code epoch hash strings through it.
func stringRef(h *Hasher128, s string) {
	h.Word(uint64(len(s)))
	var w uint64
	shift := uint(0)
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << shift
		shift += 8
		if shift == 64 {
			h.Word(w)
			w, shift = 0, 0
		}
	}
	if shift > 0 {
		h.Word(w)
	}
}

// TestHasherStringMatchesByteFold: for every length from 0 to 64, on
// random contents, after a prefix word and with a word behind it,
// String leaves the hasher where the byte-at-a-time fold does.
func TestHasherStringMatchesByteFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 8; trial++ {
			b := make([]byte, n)
			rng.Read(b)
			s := string(b)
			got, want := NewHasher128(), NewHasher128()
			got.Word(uint64(trial))
			want.Word(uint64(trial))
			got.String(s)
			stringRef(&want, s)
			got.Word(0xfeed)
			want.Word(0xfeed)
			if got.Sum() != want.Sum() {
				t.Fatalf("length %d, contents %x: String hashes to %x, the byte fold to %x", n, b, got.Sum(), want.Sum())
			}
		}
	}
}
