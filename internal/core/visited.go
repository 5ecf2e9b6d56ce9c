package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// visitedShards is the shard count of the concurrent visited set. 64
// single-mutex shards keep the chance of two workers landing on the
// same shard at the same instant low at the worker counts AMC runs with
// (a handful to a few dozen), while staying cheap to pool and clear.
const visitedShards = 64

// VisitedSet is the hash-sharded concurrent visited set of the
// work-graph explorer. States are keyed by their 128-bit structural
// hash (ExploreState.key); the hash is already uniformly mixed, so the
// low bits of one lane select the shard directly.
//
// InsertNew — an atomic insert-if-absent — is the only mutating
// operation, and it is what makes parallel exploration deterministic
// where it counts: however pops interleave across workers, exactly one
// worker wins each key and expands a state with that fingerprint, so
// every complete execution is examined exactly once and the verdict is
// schedule-independent (core.Stats documents which counters are exact
// and which may drift with representative choice).
type VisitedSet struct {
	shards     [visitedShards]visitedShard
	contention atomic.Int64
}

type visitedShard struct {
	mu sync.Mutex
	m  map[graph.Hash128]struct{}
	// Pad shard headers apart: the shard locks are the hottest
	// concurrently-written words of a parallel run, and false sharing
	// between neighboring shards would manufacture contention the
	// counter could not explain.
	_ [6]uint64
}

// visitedPool recycles VisitedSets — and, more importantly, the bucket
// arrays of their shard maps — across runs. Optimization descents run
// thousands of AMC instances back to back; before pooling, each run's
// fresh dedup map rehashed its way up from empty and dominated the
// allocation churn. release clears the maps but keeps their storage,
// up to visitedKeep keys a shard.
var visitedPool = sync.Pool{New: func() any {
	v := &VisitedSet{}
	for i := range v.shards {
		v.shards[i].m = make(map[graph.Hash128]struct{})
	}
	return v
}}

// NewVisitedSet returns an empty set, recycling pooled shard storage
// when available.
func NewVisitedSet() *VisitedSet { return visitedPool.Get().(*VisitedSet) }

// visitedKeep is the most keys a shard map may have held for release
// to keep its storage. clear costs a map's full capacity, not its
// length, so a map one big run grew would tax every small run the set
// is recycled into after it; past this size the map is dropped and
// made afresh instead.
const visitedKeep = 4096

// release empties the set and returns it to the pool. Callers must not
// retain references past this.
func (v *VisitedSet) release() {
	v.reset()
	visitedPool.Put(v)
}

// reset empties the set: each shard map is cleared in place, or
// replaced by a fresh one when it held more than visitedKeep keys.
func (v *VisitedSet) reset() {
	for i := range v.shards {
		sh := &v.shards[i]
		if len(sh.m) > visitedKeep {
			sh.m = make(map[graph.Hash128]struct{})
		} else {
			clear(sh.m)
		}
	}
	v.contention.Store(0)
}

// InsertNew adds k and reports whether it was absent — the atomic
// dedup decision of the explorer. Contended shard acquisitions are
// counted so that a workload hammering one shard shows up in the
// scheduler counters of Result.Report rather than as a silent slowdown.
func (v *VisitedSet) InsertNew(k graph.Hash128) bool {
	sh := &v.shards[k[1]&(visitedShards-1)]
	if !sh.mu.TryLock() {
		v.contention.Add(1)
		sh.mu.Lock()
	}
	_, dup := sh.m[k]
	if !dup {
		sh.m[k] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}

// Has reports whether k is present (lookup without insertion).
func (v *VisitedSet) Has(k graph.Hash128) bool {
	sh := &v.shards[k[1]&(visitedShards-1)]
	sh.mu.Lock()
	_, ok := sh.m[k]
	sh.mu.Unlock()
	return ok
}

// Len returns the number of keys across all shards.
func (v *VisitedSet) Len() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Contention returns how many shard-lock acquisitions found the lock
// held so far.
func (v *VisitedSet) Contention() int { return int(v.contention.Load()) }

// Snapshot appends every key to dst and returns the extended slice —
// the visited-set summary a checkpoint persists. Shards are locked one
// at a time; the checkpointer quiesces the workers separately, so the
// copy is a consistent point-in-time view when it matters (and merely
// a superset-free approximation never relied upon otherwise).
func (v *VisitedSet) Snapshot(dst []graph.Hash128) []graph.Hash128 {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			dst = append(dst, k)
		}
		sh.mu.Unlock()
	}
	return dst
}

// legacyVisited is the sharded variant of the historical string-keyed
// visited set, kept only for the Checker.LegacyDedup differential tests
// (which assert the hashed and string-keyed explorations are
// identical). Strings are sharded by FNV-1a.
type legacyVisited struct {
	shards [visitedShards]legacyShard
}

type legacyShard struct {
	mu sync.Mutex
	m  map[string]bool
}

func newLegacyVisited() *legacyVisited {
	v := &legacyVisited{}
	for i := range v.shards {
		v.shards[i].m = make(map[string]bool)
	}
	return v
}

func (v *legacyVisited) insertNew(k string) bool {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.Lock()
	dup := sh.m[k]
	if !dup {
		sh.m[k] = true
	}
	sh.mu.Unlock()
	return !dup
}
