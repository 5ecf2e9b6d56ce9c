package structs

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// seqlockWorkload verifies the sequence lock (locks.Seqlock) as a data
// structure: one writer thread updates a two-word pair under the
// write side, the remaining threads read it optimistically. The spec
// has two halves: each reader asserts in-thread that it never observes
// a torn pair, and the final check demands the writer's sequence is
// monotone and quiesced — exactly two increments per write section
// (final seq == 2*writers*iters, necessarily even) with the write lock
// released and both words at their final value. The read-side retry is
// an await, so AMC additionally proves readers terminate.
type seqlockWorkload struct {
	iters   int
	badRead bool // seeded bug: the reader skips the odd-sequence check
}

// SeqlockPair returns the seqlock workload with iters write sections.
func SeqlockPair(iters int) workload.Workload { return &seqlockWorkload{iters: iters} }

// SeqlockBadRead returns the seeded-bug variant whose reader omits the
// odd-sequence (write-in-progress) check: a reader overlapping a write
// section can accept a torn pair whose recheck still matches the odd
// begin value — caught by the reader's torn-pair assertion.
func SeqlockBadRead(iters int) workload.Workload {
	return &seqlockWorkload{iters: iters, badRead: true}
}

func (w *seqlockWorkload) Name() string {
	if w.badRead {
		return "structs/seqlock-badread"
	}
	return "structs/seqlock"
}

func (w *seqlockWorkload) Doc() string {
	if w.badRead {
		return "seqlock reader without the odd-sequence check (study case: torn read)"
	}
	return "sequence lock (spec: no torn pair, writer sequence monotone and quiesced)"
}

func (w *seqlockWorkload) Buggy() bool         { return w.badRead }
func (w *seqlockWorkload) Threads() (int, int) { return 2, 0 }

func (w *seqlockWorkload) DefaultSpec() *vprog.BarrierSpec {
	return locks.SeqlockPoints(vprog.NewSpec(), "seqlock")
}

// SymGroups: readers are interchangeable; the single writer stands
// alone.
func (w *seqlockWorkload) SymGroups(nthreads int) [][]int { return workload.Group(1, nthreads) }

func (w *seqlockWorkload) ProgramName(nthreads int) string {
	return fmt.Sprintf("%s/t%d-i%d", w.Name(), nthreads, w.iters)
}

func (w *seqlockWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) workload.Ops {
	iters := w.iters
	sl := locks.NewSeqlock(env, spec)
	// Env.Var dedups by name, so these handles alias the seqlock's own
	// state — the final check and the bad reader need them directly.
	seq := env.Var("seqlock.seq", 0)
	wlock := env.Var("seqlock.wlock", 0)
	a := env.Var("slq.a", 0)
	b := env.Var("slq.b", 0)

	// The bad reader's barrier modes, looked up once per build as in
	// treiber and msqueue.
	begin := spec.M("seqlock.begin")
	dataRead := spec.M("seqlock.data_read")
	recheckFence := spec.M("seqlock.recheck_fence")
	recheck := spec.M("seqlock.recheck")
	writer := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			sl.Write(m, func(store func(*vprog.Var, uint64)) {
				va := m.Load(a, vprog.Rlx) // own writes: relaxed read is fine under wlock
				store(a, va+1)
				store(b, va+1)
			})
		}
	}
	goodReader := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			var va, vb uint64
			sl.Read(m, func(load func(*vprog.Var) uint64) {
				va = load(a)
				vb = load(b)
			})
			m.Assert(va == vb, fmt.Sprintf("seqlock: torn read a=%d b=%d", va, vb))
		}
	}
	// The seeded bug: same optimistic retry, but the "sequence odd ⇒
	// write in progress, retry" guard is missing, so a recheck that
	// matches an odd begin value accepts a mid-write snapshot.
	badReader := func(m vprog.Mem) {
		for i := 0; i < iters; i++ {
			var va, vb uint64
			m.AwaitDo(func() bool {
				s1 := m.Load(seq, begin)
				va = m.Load(a, dataRead)
				vb = m.Load(b, dataRead)
				m.Fence(recheckFence)
				s2 := m.Load(seq, recheck)
				return s2 == s1
			})
			m.Assert(va == vb, fmt.Sprintf("seqlock: torn read a=%d b=%d", va, vb))
		}
	}
	reader := goodReader
	if w.badRead {
		reader = badReader
	}
	threads := make([]vprog.ThreadFunc, nthreads)
	threads[0] = writer
	for t := 1; t < nthreads; t++ {
		threads[t] = reader
	}

	want := uint64(iters)
	final := func(load func(*vprog.Var) uint64) (bool, string) {
		if got := load(seq); got != 2*want {
			return false, fmt.Sprintf("seqlock: sequence not monotone: seq = %d, want %d", got, 2*want)
		}
		if got := load(wlock); got != 0 {
			return false, fmt.Sprintf("seqlock: write lock still held: wlock = %d", got)
		}
		if va, vb := load(a), load(b); va != want || vb != want {
			return false, fmt.Sprintf("seqlock: writer updates lost: a=%d b=%d want %d", va, vb, want)
		}
		return true, ""
	}
	return workload.Ops{Threads: threads, Final: final}
}
