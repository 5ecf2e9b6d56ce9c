package store

import (
	"sync"

	"repro"
	"repro/internal/graph"
)

// The code epoch stamped on every record is repro.CodeEpoch: one hash
// of every directory that can mis-judge a verdict or mis-associate one
// with a problem, this package and internal/frame under it included
// (the list is the embed directive in the root package's epoch.go).
// It is hashed on the first store use and kept.

var (
	epochOnce sync.Once
	// codeEpoch is written once by currentEpoch; tests (which always
	// trigger that computation first) then override it directly to
	// simulate a cross-commit code edit.
	codeEpoch graph.Hash128
)

// currentEpoch returns the epoch stamped on new records and required
// of served ones.
func currentEpoch() graph.Hash128 {
	epochOnce.Do(func() { codeEpoch = repro.CodeEpoch() })
	return codeEpoch
}

// CodeEpoch returns the code-identity epoch stamped on every record.
func CodeEpoch() graph.Hash128 { return currentEpoch() }
