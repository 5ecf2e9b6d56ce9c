package workload

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/vprog"
)

// This file adapts locks.Algorithm onto the Workload seam: the generic
// mutex, reader-writer and recursive clients that used to be built
// directly in internal/harness are one workload family here.
// harness.MutexClient and harness.RWClient are one-line shorthands for
// Program over Mutex and RW; the recursive client has none and is built
// as Program(Recursive(alg), spec, n). The adapted
// programs are structurally identical to the pre-refactor clients —
// same variable names and allocation order, same operation sequences,
// same final-check messages, same candidate symmetry groups — so their
// Program.Fingerprint128 keys are byte-identical and the pooled
// verdict corpus stays warm across the refactor (pinned by the
// differential test in internal/harness).

// lockGroup is Group gated on the algorithm's audited Symmetric flag:
// an algorithm not audited symmetric declares no candidate groups at
// all (matching the old harness symGroup helper).
func lockGroup(alg *locks.Algorithm, lo, hi int) [][]int {
	if !alg.Symmetric {
		return nil
	}
	return Group(lo, hi)
}

// mutexWorkload is the paper's generic client (§1.2) on the workload
// seam: every thread performs iters critical sections incrementing a
// shared counter with plain (relaxed) accesses; the spec demands no
// update was lost.
type mutexWorkload struct {
	alg   *locks.Algorithm
	iters int
}

// Mutex adapts alg's generic mutual-exclusion client as a Workload;
// iters is the critical sections per thread.
func Mutex(alg *locks.Algorithm, iters int) Workload { return &mutexWorkload{alg, iters} }

func (w *mutexWorkload) Name() string                    { return "mutex/" + w.alg.Name }
func (w *mutexWorkload) Doc() string                     { return w.alg.Doc }
func (w *mutexWorkload) Buggy() bool                     { return w.alg.Buggy }
func (w *mutexWorkload) Threads() (int, int)             { return 1, 0 }
func (w *mutexWorkload) DefaultSpec() *vprog.BarrierSpec { return w.alg.DefaultSpec() }
func (w *mutexWorkload) SymGroups(nthreads int) [][]int  { return lockGroup(w.alg, 0, nthreads) }
func (w *mutexWorkload) ProgramName(nthreads int) string {
	return fmt.Sprintf("client/mutex/%s/t%d-i%d", w.alg.Name, nthreads, w.iters)
}

func (w *mutexWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Ops {
	lk := w.alg.New(env, spec, nthreads)
	x := env.Var("cs.counter", 0)
	iters := w.iters
	worker := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			tok := lk.Acquire(m)
			v := m.Load(x, vprog.Rlx)
			m.Store(x, v+1, vprog.Rlx)
			lk.Release(m, tok)
		}
	}
	threads := make([]vprog.ThreadFunc, nthreads)
	for t := range threads {
		threads[t] = worker
	}
	want := uint64(nthreads * iters)
	final := func(load func(*vprog.Var) uint64) (bool, string) {
		if got := load(x); got != want {
			return false, fmt.Sprintf("lost update: counter = %d, want %d", got, want)
		}
		return true, ""
	}
	return Ops{Threads: threads, Final: final}
}

// rwWorkload is the reader-writer client: writers update two variables
// atomically under the write lock, readers snapshot both under the read
// lock and assert they never observe a torn pair.
type rwWorkload struct {
	alg              *locks.Algorithm
	writers, readers int
	iters            int
}

// RW adapts alg (which must implement locks.RWLock when built) as the
// reader-writer client workload with a fixed writers/readers split.
func RW(alg *locks.Algorithm, writers, readers, iters int) Workload {
	return &rwWorkload{alg, writers, readers, iters}
}

func (w *rwWorkload) Name() string {
	return fmt.Sprintf("rw/%s/w%d-r%d", w.alg.Name, w.writers, w.readers)
}
func (w *rwWorkload) Doc() string { return w.alg.Doc }
func (w *rwWorkload) Buggy() bool { return w.alg.Buggy }
func (w *rwWorkload) Threads() (int, int) {
	n := w.writers + w.readers
	return n, n
}
func (w *rwWorkload) DefaultSpec() *vprog.BarrierSpec { return w.alg.DefaultSpec() }

// SymGroups: writers are interchangeable among themselves, and so are
// readers; the two roles are distinct groups.
func (w *rwWorkload) SymGroups(int) [][]int {
	return append(lockGroup(w.alg, 0, w.writers), lockGroup(w.alg, w.writers, w.writers+w.readers)...)
}
func (w *rwWorkload) ProgramName(int) string {
	return fmt.Sprintf("client/rw/%s/w%d-r%d-i%d", w.alg.Name, w.writers, w.readers, w.iters)
}

func (w *rwWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Ops {
	rw, ok := w.alg.New(env, spec, nthreads).(locks.RWLock)
	if !ok {
		panic("RWClient: algorithm " + w.alg.Name + " is not a reader-writer lock")
	}
	a := env.Var("rw.a", 0)
	b := env.Var("rw.b", 0)
	iters := w.iters
	writer := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			tok := rw.Acquire(m)
			va := m.Load(a, vprog.Rlx)
			m.Store(a, va+1, vprog.Rlx)
			vb := m.Load(b, vprog.Rlx)
			m.Store(b, vb+1, vprog.Rlx)
			rw.Release(m, tok)
		}
	}
	reader := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			tok := rw.AcquireShared(m)
			va := m.Load(a, vprog.Rlx)
			vb := m.Load(b, vprog.Rlx)
			m.Assert(va == vb, fmt.Sprintf("torn read: a=%d b=%d", va, vb))
			rw.ReleaseShared(m, tok)
		}
	}
	var threads []vprog.ThreadFunc
	for i := 0; i < w.writers; i++ {
		threads = append(threads, writer)
	}
	for i := 0; i < w.readers; i++ {
		threads = append(threads, reader)
	}
	want := uint64(w.writers * iters)
	final := func(load func(*vprog.Var) uint64) (bool, string) {
		if load(a) != want || load(b) != want {
			return false, fmt.Sprintf("writer updates lost: a=%d b=%d want %d", load(a), load(b), want)
		}
		return true, ""
	}
	return Ops{Threads: threads, Final: final}
}

// recursiveWorkload verifies re-entrant acquisition: each thread
// acquires the lock twice (nested), increments, and releases in LIFO
// order.
type recursiveWorkload struct {
	alg *locks.Algorithm
}

// Recursive adapts alg's re-entrant acquisition client as a Workload.
func Recursive(alg *locks.Algorithm) Workload { return &recursiveWorkload{alg} }

func (w *recursiveWorkload) Name() string                    { return "recursive/" + w.alg.Name }
func (w *recursiveWorkload) Doc() string                     { return w.alg.Doc }
func (w *recursiveWorkload) Buggy() bool                     { return w.alg.Buggy }
func (w *recursiveWorkload) Threads() (int, int)             { return 1, 0 }
func (w *recursiveWorkload) DefaultSpec() *vprog.BarrierSpec { return w.alg.DefaultSpec() }
func (w *recursiveWorkload) SymGroups(nthreads int) [][]int {
	return lockGroup(w.alg, 0, nthreads)
}
func (w *recursiveWorkload) ProgramName(nthreads int) string {
	return fmt.Sprintf("client/recursive/%s/t%d", w.alg.Name, nthreads)
}

func (w *recursiveWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Ops {
	lk := w.alg.New(env, spec, nthreads)
	x := env.Var("cs.counter", 0)
	worker := func(m vprog.Mem) {
		outer := lk.Acquire(m)
		inner := lk.Acquire(m) // re-entry must not deadlock
		v := m.Load(x, vprog.Rlx)
		m.Store(x, v+1, vprog.Rlx)
		lk.Release(m, inner)
		v = m.Load(x, vprog.Rlx)
		m.Store(x, v+1, vprog.Rlx)
		lk.Release(m, outer)
	}
	threads := make([]vprog.ThreadFunc, nthreads)
	for t := range threads {
		threads[t] = worker
	}
	want := uint64(2 * nthreads)
	final := func(load func(*vprog.Var) uint64) (bool, string) {
		if got := load(x); got != want {
			return false, fmt.Sprintf("lost update: counter = %d, want %d", got, want)
		}
		return true, ""
	}
	return Ops{Threads: threads, Final: final}
}
