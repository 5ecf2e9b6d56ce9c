package repro

import (
	"embed"
	"io/fs"
	"strings"

	"repro/internal/graph"
)

// sources is what the code-identity epoch covers, and this directive is
// the only place that says so: every directory whose code can change an
// AMC verdict (graph, mm, core), the program a verdict is about (vprog,
// locks, workload, structs, harness), or the key and bytes a verdict is
// filed under (frame, store, problem, optimize, vsync). A directory that is
// renamed or removed fails the build here; a new one that the listed
// sources import fails TestEpochImportClosure until it is listed or
// exempted by name.
//
// Why an epoch at all: a program's fingerprint witnesses one sequential
// execution, so an edit to a lock's contended path leaves every store
// key unchanged, and a store restored across commits would serve a
// verdict the edited code never earned. The store stamps CodeEpoch on
// every record and checkpoint and serves same-epoch ones only; edits
// under cmd/, to docs, benchmarks or tests keep a store warm.
//
// The globs take the _test.go files along (filtered out of the hash
// below, ~100 KiB of binary): a list of file names would leave a newly
// added source file out of the epoch without anyone noticing.
//
//go:embed internal/graph/*.go internal/mm/*.go internal/core/*.go internal/vprog/*.go internal/locks/*.go internal/workload/*.go internal/structs/*.go internal/harness/*.go internal/frame/*.go internal/store/*.go internal/problem/*.go internal/optimize/*.go vsync/*.go
var sources embed.FS

// CodeEpoch hashes the embedded sources. It is the same value in every
// binary and test binary built from one source tree; internal/store
// computes it once per process.
func CodeEpoch() graph.Hash128 { return hashSources(sources) }

// hashSources folds every non-test .go file under fsys into one hash:
// path and contents in fs.WalkDir's lexical order, then the file count,
// so an edit, a rename, a split and a removal each change it.
func hashSources(fsys fs.FS) graph.Hash128 {
	h := graph.NewHasher128()
	n := 0
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		h.String(path)
		h.String(string(data))
		n++
		return nil
	})
	if err != nil {
		panic("repro: hashing embedded sources: " + err.Error())
	}
	h.Word(uint64(n))
	return h.Sum()
}
