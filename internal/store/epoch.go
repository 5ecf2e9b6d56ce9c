package store

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"repro/internal/frame"
	"repro/internal/graph"
	"repro/internal/srcid"
)

// The record code epoch covers everything that can mis-associate a
// verdict with a problem: srcid.Epoch (the checker and program
// constructors), this package's own sources (key hashing, record
// encode/decode, the load scan) with internal/frame's (the record
// framing under them), and every key-handling package above
// it in the import graph that registers itself (internal/optimize's
// cacheKey translation, vsync's matrix key construction). srcid cannot
// import those without a cycle, so the dependency is inverted:
// they push their embedded sources here from init functions, and the
// epoch is computed lazily on the first store use — which is in main
// or a test, safely after every init ran. The cmd/ mains construct
// keys too but only as verbatim field copies; they are deliberately
// not registered.
//
// Consequence: a binary that imports store but not optimize/vsync
// computes a different epoch. That is sound — its records and theirs
// simply don't interchange, each build re-verifies what it can't
// trust — but tools meant to SHARE a store must therefore link every
// registering package; cmd/vsyncopt blank-imports repro/vsync for
// exactly this reason.

type epochSource struct {
	name  string
	files fs.FS
}

var (
	epochMu     sync.Mutex
	epochFired  bool
	epochExtras []epochSource
	epochOnce   sync.Once
	// codeEpoch is written once by currentEpoch; tests (which always
	// trigger that computation first) then override it directly to
	// simulate a cross-commit code edit.
	codeEpoch graph.Hash128
)

// RegisterCodeSource folds a key-handling package's embedded sources
// into the code epoch stamped on every record. Call from an init
// function; a call after the first store use panics, because an epoch
// that silently excluded a registered package would key records
// written by code it never witnessed.
func RegisterCodeSource(name string, files fs.FS) {
	epochMu.Lock()
	defer epochMu.Unlock()
	if epochFired {
		panic(fmt.Sprintf("store: RegisterCodeSource(%q) after the code epoch was computed; register from an init function", name))
	}
	epochExtras = append(epochExtras, epochSource{name, files})
}

// currentEpoch returns the epoch stamped on new records and required
// of served ones.
func currentEpoch() graph.Hash128 {
	epochOnce.Do(func() {
		epochMu.Lock()
		epochFired = true
		extras := append([]epochSource(nil), epochExtras...)
		epochMu.Unlock()
		sort.Slice(extras, func(i, j int) bool { return extras[i].name < extras[j].name })
		base := srcid.Epoch()
		h := graph.NewHasher128()
		h.Word(base[0])
		h.Word(base[1])
		srcid.HashPackage(&h, "internal/store", sourceFS)
		srcid.HashPackage(&h, "internal/frame", frame.SourceFiles())
		for _, e := range extras {
			srcid.HashPackage(&h, e.name, e.files)
		}
		codeEpoch = h.Sum()
	})
	return codeEpoch
}

// CodeEpoch returns the code-identity epoch stamped on every record.
func CodeEpoch() graph.Hash128 { return currentEpoch() }
