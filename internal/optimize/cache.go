package optimize

import (
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// probeOutcome classifies one cache probe. Distinguishing a genuine
// miss from "this problem was judged, but its verdict was indecisive
// and is not storable" keeps suite statistics honest: an Error-verdict
// problem re-probed forever would otherwise read as an endless stream
// of cache misses and under-report the cache's efficacy.
type probeOutcome uint8

const (
	probeMiss probeOutcome = iota
	probeHit
	probeUndecided
)

// Cache memoizes AMC verdicts across the optimization search. The key
// is the persistent store's (memory model, candidate-spec fingerprint,
// program fingerprint), never the program name: the spec fully
// determines the barrier modes of the generated program and the program
// fingerprint pins its structure (algorithm, thread count, iterations),
// so two lookups with equal keys describe the same verification
// problem. The greedy descent revisits assignments
// whenever it runs more than one pass — pass n+1 re-tries every point
// against a spec that pass n already judged for the points that settled
// early — and the speculative ladder can race the same candidate from
// different passes; the cache collapses all of those to a map lookup.
//
// A Cache may additionally be backed by a persistent store.Session
// (NewCacheWithStore): memory misses fall through to the store, hits
// are promoted into memory, and decisive verdicts are written through —
// so a descent re-run in a fresh process pays hashing instead of model
// checking.
//
// Only decisive verdicts (OK, SafetyViolation, ATViolation) are stored;
// Error, Undecided and Canceled runs carry no reusable information. Keys
// judged Error or Undecided are remembered (in memory only) so their
// re-probes count as "undecided" rather than misses. A Cache is safe for
// concurrent use and may be shared across Optimizer runs — e.g.
// optimizing the same lock against growing client suites.
type Cache struct {
	mu        sync.Mutex
	m         map[store.Key]core.Verdict
	undecided map[store.Key]struct{}
	persist   *store.Session

	hits, misses, undecidedProbes int
	persistHits                   int
	putErr                        error
}

// NewCache returns an empty in-memory verdict cache.
func NewCache() *Cache {
	return &Cache{m: make(map[store.Key]core.Verdict)}
}

// NewCacheWithStore returns a verdict cache backed by the persistent
// store st (nil is allowed and equivalent to NewCache). The caller
// retains ownership of st and is responsible for closing it.
func NewCacheWithStore(st *store.Session) *Cache {
	c := NewCache()
	c.persist = st
	return c
}

// lookup returns the cached verdict for key, counting the probe and
// classifying it (hit / miss / known-undecidable).
func (c *Cache) lookup(key store.Key) (core.Verdict, probeOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		c.hits++
		return v, probeHit
	}
	if c.persist != nil {
		if v, ok := c.persist.Lookup(key); ok {
			if c.m == nil {
				c.m = make(map[store.Key]core.Verdict)
			}
			c.m[key] = v // promote: later probes stay off the store's lock
			c.hits++
			c.persistHits++
			return v, probeHit
		}
	}
	if _, ok := c.undecided[key]; ok {
		c.undecidedProbes++
		return 0, probeUndecided
	}
	c.misses++
	return 0, probeMiss
}

// store records a verdict. Decisive ones land in memory and — when a
// persistent tier is attached — on disk; Error and Undecided mark the key
// undecided (re-probes are classified, never served as hits); Canceled
// is dropped entirely, it says nothing about the problem.
func (c *Cache) store(key store.Key, name string, v core.Verdict) {
	switch v {
	case core.Canceled:
		return
	case core.Error, core.Undecided:
		c.mu.Lock()
		if c.undecided == nil {
			c.undecided = make(map[store.Key]struct{})
		}
		c.undecided[key] = struct{}{}
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[store.Key]core.Verdict)
	}
	c.m[key] = v
	delete(c.undecided, key) // a decisive re-run supersedes an old Error
	persist := c.persist
	c.mu.Unlock()
	if persist != nil {
		// Write-through outside the cache lock; a conflict (see
		// store.Put) leaves the disk record authoritative-first and this
		// run's verdict memory-only. Failures don't block the search,
		// but the first one is kept (StoreErr) so callers can warn that
		// a run believed to be warming the store persisted nothing.
		if err := persist.Put(key, v, name); err != nil {
			c.mu.Lock()
			if c.putErr == nil {
				c.putErr = err
			}
			c.mu.Unlock()
		}
	}
}

// StoreErr returns the first persistent write-through failure (a disk
// append error or a verdict conflict), or nil if every decisive verdict
// reached the store.
func (c *Cache) StoreErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putErr
}

// Hits returns the number of probes answered (memory or store).
func (c *Cache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the number of probes for problems never yet judged.
func (c *Cache) Misses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Undecided returns the number of probes for problems that were judged
// but produced no storable verdict (engine errors, budget stops) — not
// hits, but not honest misses either.
func (c *Cache) Undecided() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undecidedProbes
}

// PersistHits returns how many hits were served from the persistent
// tier (before promotion) rather than process memory.
func (c *Cache) PersistHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistHits
}

// Lookups returns the total number of probes so far
// (hits + misses + undecided).
func (c *Cache) Lookups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits + c.misses + c.undecidedProbes
}

// Len returns the number of memoized verdicts in process memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
