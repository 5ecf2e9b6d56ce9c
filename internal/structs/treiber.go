// Package structs ships nonblocking data structures on the workload
// seam (internal/workload): each structure builds its thread bodies
// against vprog and judges the recorded operation outcomes with a
// per-structure final-state spec, so the verification matrix, the
// suite and the benchmark ladder cover it exactly like a lock client.
//
// Two AMC constraints shape the implementations:
//
//   - CAS retry loops are awaits (vprog.AwaitDo): a failed retry
//     re-stores only link words the thread owns (TagOwner replicas),
//     which the effect-bounded retry contract permits, so the checker's
//     wasteful-execution filter prunes re-reads of an unchanged top/
//     tail/head instead of enumerating every interleaving of a bounded
//     spin — and retry loops that can never succeed surface as proper
//     await-termination verdicts ("no remaining write to observe"),
//     not assertion trips on an artificial bound. Each structure keeps
//     its pre-await encoding — the pigeonhole-bounded plain loop of
//     PR 9, bound exhaustion tripping an Assert — as a "/bounded" twin
//     (TreiberBounded and friends), the differential oracle for the
//     await reduction exactly as Checker.NoSymmetry shadows symmetry.
//     The seqlock has no such twin: a failed optimistic read implies
//     nothing about writer progress, so no retry bound is sound for it
//     — its read side is only expressible as an await.
//
//   - Node identities embed the allocating thread's id in the high
//     bits (TagTid) and per-thread node arrays are declared as owned
//     replica families (TagOwner) — see nodeVars — so the structures
//     participate in thread-symmetry reduction: interchangeable
//     producer/consumer groups are declared as SymGroups candidates
//     and trace-validated by vprog rather than trusted.
//
// Each structure has a seeded-bug study variant (Buggy() true,
// excluded from the default corpus) whose counterexample the test
// suite demands: a Treiber pop that ignores its CAS failure, a queue
// enqueue that links with a plain store, a seqlock reader that skips
// the odd-sequence check.
package structs

import (
	"fmt"

	"repro/internal/vprog"
	"repro/internal/workload"
)

// treiberWorkload is the Treiber stack: each thread pushes its own
// iters nodes and then pops iters times. The LIFO spec demands exact
// conservation — the multiset of recorded pops plus the elements left
// on the stack equals the multiset of pushes, no element duplicated or
// lost — and empty-check soundness: because every thread pushes before
// it pops, a pop can never legitimately observe an empty stack, so a
// recorded sawEmpty is a violation.
type treiberWorkload struct {
	iters   int
	badPop  bool // seeded bug: pop ignores its CAS failure (missing retry)
	bounded bool // differential oracle: pigeonhole-bounded plain retry loops
}

// Treiber returns the Treiber stack workload with iters push/pop pairs
// per thread.
func Treiber(iters int) workload.Workload { return &treiberWorkload{iters: iters} }

// TreiberBounded returns the bounded-loop twin: the same stack with its
// CAS retries encoded as pigeonhole-bounded plain loops instead of
// awaits — the differential oracle for the await reduction.
func TreiberBounded(iters int) workload.Workload {
	return &treiberWorkload{iters: iters, bounded: true}
}

// TreiberBadPop returns the seeded-bug variant whose pop takes the
// popped value even when its CAS failed — the missing retry lets two
// threads pop one node, a duplication the LIFO spec catches.
func TreiberBadPop(iters int) workload.Workload {
	return &treiberWorkload{iters: iters, badPop: true}
}

// TreiberBadPopBounded is the bounded-loop twin of TreiberBadPop, so
// the differential also pins a violating verdict across encodings.
func TreiberBadPopBounded(iters int) workload.Workload {
	return &treiberWorkload{iters: iters, badPop: true, bounded: true}
}

func (w *treiberWorkload) Name() string {
	name := "structs/treiber"
	if w.badPop {
		name = "structs/treiber-badpop"
	}
	if w.bounded {
		name += "/bounded"
	}
	return name
}

func (w *treiberWorkload) Doc() string {
	switch {
	case w.badPop:
		return "Treiber stack with the pop CAS retry removed (study case: duplicated pop)"
	case w.bounded:
		return "Treiber stack, bounded-loop encoding (differential oracle for the await reduction)"
	}
	return "Treiber lock-free stack (LIFO spec: conservation + empty-check soundness)"
}

func (w *treiberWorkload) Buggy() bool         { return w.badPop }
func (w *treiberWorkload) Threads() (int, int) { return 2, 0 }

func (w *treiberWorkload) DefaultSpec() *vprog.BarrierSpec {
	// The weak-memory-correct assignment: the push CAS releases the
	// link store, the pop's top load acquires it (a relaxed pop_read
	// lets a pop unlink through a stale next pointer, losing the
	// elements below — exactly the fence-sensitivity the spec records).
	return vprog.NewSpec().
		Def("treiber.push_read", vprog.Rlx).
		Def("treiber.link", vprog.Rlx).
		Def("treiber.push_cas", vprog.AcqRel).
		Def("treiber.pop_read", vprog.Acq).
		Def("treiber.next_read", vprog.Rlx).
		Def("treiber.pop_cas", vprog.AcqRel).
		Def("treiber.record", vprog.Rlx)
}

// SymGroups: every thread runs the identical push-then-pop body on its
// own tagged replicas, so all threads are one candidate group.
func (w *treiberWorkload) SymGroups(nthreads int) [][]int { return workload.Group(0, nthreads) }

func (w *treiberWorkload) ProgramName(nthreads int) string {
	return fmt.Sprintf("%s/t%d-i%d", w.Name(), nthreads, w.iters)
}

func (w *treiberWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) workload.Ops {
	iters := w.iters
	top := env.Var("treiber.top", 0).TagTid(nodeShift, nodeBias)
	nexts := make([][]*vprog.Var, nthreads)
	pops := make([][]*vprog.Var, nthreads)
	for t := 0; t < nthreads; t++ {
		nexts[t] = nodeVars(env, "treiber.next", t, iters)
	}
	for t := 0; t < nthreads; t++ {
		pops[t] = nodeVars(env, "treiber.pop", t, iters)
	}
	// The barrier modes, looked up once per build and not in the attempt
	// closures, which every replay of every popped state runs again (an
	// unknown point panics here).
	pushRead := spec.M("treiber.push_read")
	link := spec.M("treiber.link")
	pushCAS := spec.M("treiber.push_cas")
	popRead := spec.M("treiber.pop_read")
	nextRead := spec.M("treiber.next_read")
	popCAS := spec.M("treiber.pop_cas")
	record := spec.M("treiber.record")
	badPop := w.badPop

	// One push attempt: read top, link the new node's next word (owned
	// by the pushing thread, so a failed attempt's re-store is within
	// the AwaitDo contract) and try to swing top. Reports success.
	pushAttempt := func(m vprog.Mem, t, k int, id uint64) bool {
		old := m.Load(top, pushRead)
		m.Store(nexts[t][k], old, link)
		if _, ok := m.CmpXchg(top, old, id, pushCAS); ok {
			return true
		}
		m.Pause()
		return false
	}
	// One pop attempt: the outcome lands in *got (incomplete = retry).
	popAttempt := func(m vprog.Mem, got *uint64) bool {
		old := m.Load(top, popRead)
		if old == 0 {
			*got = sawEmpty
			return true
		}
		ot, ok := decodeNode(old)
		nxt := m.Load(nexts[ot][ok], nextRead)
		if _, ok := m.CmpXchg(top, old, nxt, popCAS); ok || badPop {
			*got = old
			return true
		}
		m.Pause()
		return false
	}

	// The await encoding: each retry loop is one AwaitDo, so the
	// wasteful filter collapses unproductive re-reads and a retry that
	// can never succeed is an await-termination verdict, not a bound.
	worker := func(m vprog.Mem) {
		t := m.TID()
		for k := 0; k < iters; k++ {
			id := nodeID(t, k)
			m.AwaitDo(func() bool { return pushAttempt(m, t, k, id) })
		}
		for k := 0; k < iters; k++ {
			got := uint64(incomplete)
			m.AwaitDo(func() bool { return popAttempt(m, &got) })
			m.Store(pops[t][k], got, record)
		}
	}

	// The bounded oracle encoding (PR 9): each failed CAS implies
	// another thread's successful CAS on top strictly between the load
	// and the failure, and the other threads perform at most
	// 2*(nthreads-1)*iters successful top CASes in the whole program —
	// so by pigeonhole every retry loop succeeds within that many
	// failures plus one try. A bound exhaustion trips an Assert — a
	// loud counterexample, never a silent pass.
	bound := 2*(nthreads-1)*iters + 1
	boundedWorker := func(m vprog.Mem) {
		t := m.TID()
		for k := 0; k < iters; k++ {
			id := nodeID(t, k)
			done := false
			for attempt := 0; attempt < bound && !done; attempt++ {
				done = pushAttempt(m, t, k, id)
			}
			m.Assert(done, "treiber: push retry bound exhausted")
		}
		for k := 0; k < iters; k++ {
			got := uint64(incomplete)
			for attempt := 0; attempt < bound && got == incomplete; attempt++ {
				popAttempt(m, &got)
			}
			m.Assert(got != incomplete, "treiber: pop retry bound exhausted")
			m.Store(pops[t][k], got, record)
		}
	}

	body := worker
	if w.bounded {
		body = boundedWorker
	}
	threads := make([]vprog.ThreadFunc, nthreads)
	for t := range threads {
		threads[t] = body
	}

	total := nthreads * iters
	final := func(load func(*vprog.Var) uint64) (bool, string) {
		seen := make(map[uint64]int, total)
		for t := range pops {
			for k, slot := range pops[t] {
				switch v := load(slot); v {
				case incomplete:
					return false, fmt.Sprintf("treiber: pop %d of thread %d did not complete", k, t)
				case sawEmpty:
					return false, "treiber: pop observed an empty stack — unreachable when every thread pushes before popping"
				default:
					seen[v]++
				}
			}
		}
		for cur, steps := load(top), 0; cur != 0; steps++ {
			if steps > total {
				return false, "treiber: stack chain is cyclic or overlong"
			}
			seen[cur]++
			t, k := decodeNode(cur)
			if t < 0 || t >= nthreads || k >= iters {
				return false, fmt.Sprintf("treiber: stack holds alien element %#x", cur)
			}
			cur = load(nexts[t][k])
		}
		for t := 0; t < nthreads; t++ {
			for k := 0; k < iters; k++ {
				if n := seen[nodeID(t, k)]; n != 1 {
					return false, fmt.Sprintf("treiber: element %#x seen %d times (duplicated or lost)", nodeID(t, k), n)
				}
			}
		}
		if len(seen) != total {
			return false, "treiber: alien elements recorded"
		}
		return true, ""
	}
	return workload.Ops{Threads: threads, Final: final}
}
