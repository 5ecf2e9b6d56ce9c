package graph

import (
	"encoding/binary"
	"math/bits"
)

// Hash128 is a 128-bit structural hash. The explorer's visited set, the
// optimizer's verdict cache and BarrierSpec memo keys all key on these
// instead of canonical strings: at 128 bits the collision probability
// across even billions of states is negligible (~2⁻⁶⁴), while the key
// costs two words instead of a fmt-built string per state.
type Hash128 = [2]uint64

// Hasher128 accumulates words into a Hash128. It is a two-lane
// multiply-xor mixer (splitmix64-style finalizers per word); not
// cryptographic, but well-diffused for structural dedup keys.
type Hasher128 struct {
	lo, hi uint64
}

// NewHasher128 returns a hasher with fixed distinct lane seeds.
func NewHasher128() Hasher128 {
	return Hasher128{lo: 0x9e3779b97f4a7c15, hi: 0xc2b2ae3d27d4eb4f}
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Word folds one 64-bit word into the hash.
func (h *Hasher128) Word(x uint64) {
	x = mix64(x)
	h.lo = (h.lo ^ x) * 0x9ddfea08eb382d69
	h.lo ^= h.lo >> 32
	h.hi = (h.hi ^ bits.RotateLeft64(x, 32)) * 0xff51afd7ed558ccd
	h.hi ^= h.hi >> 29
}

// String folds a string into the hash, 8 bytes per little-endian word
// (a short last word zero-padded), after a length word so
// concatenation boundaries stay distinguishable.
func (h *Hasher128) String(s string) {
	h.Word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.Word(binary.LittleEndian.Uint64([]byte(s[:8])))
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h.Word(w)
	}
}

// Sum returns the accumulated hash.
func (h *Hasher128) Sum() Hash128 {
	return Hash128{mix64(h.lo), mix64(h.hi)}
}

// hashID packs an EventID into one word for hashing. Thread and index
// both fit 32 bits by construction (InitThread is -1, NoEvent -2).
func hashID(id EventID) uint64 {
	return uint64(uint32(id.Thread))<<32 | uint64(uint32(id.Index))
}

// Fingerprint128 returns a 128-bit structural hash of the graph,
// covering exactly the information of Fingerprint: per-thread event
// structure (kind, mode, loc, values, degradation), rf choices, and the
// per-location modification orders, and not the stamps. Two graphs with
// equal fingerprints lead to the same complete executions; the
// explorer's visited set keys on this hash. (The states on the way can
// differ: the revisit restriction keeps events by stamp, see the
// core.Stats doc.) It is the one key fold, fingerprintUnderPerm, under
// the identity relabeling, so a symmetric run's canonical keys and a
// plain run's keys are words of one layout.
func (g *Graph) Fingerprint128() Hash128 {
	return (*SymSpec)(nil).fingerprintUnderPerm(g, nil, nil)
}

// ForcedKey folds a state's forced (read, write) revisit pair into its
// graph key k: the dedup key of a state that carries one.
func ForcedKey(k Hash128, r, w EventID) Hash128 {
	h := NewHasher128()
	h.Word(k[0])
	h.Word(k[1])
	h.Word(hashID(r))
	h.Word(hashID(w))
	return h.Sum()
}
