package structs

import (
	"fmt"

	"repro/internal/vprog"
	"repro/internal/workload"
)

// dummyID is the Michael–Scott queue's pre-allocated dummy node: head
// and tail start on it. The value decodes to thread -1 under the node
// tagging, so the symmetry folder leaves it alone.
const dummyID = 1

// msqueueWorkload is the Michael–Scott two-lock-free queue: the first
// producers threads each enqueue iters nodes (with the classic
// link-then-swing CAS pair, helping a lagging tail), the remaining
// consumer threads split the matching number of dequeue attempts. The
// FIFO spec demands conservation (recorded dequeues plus the residual
// chain equal the multiset of enqueues, nothing duplicated or lost)
// and per-producer order: any one consumer's dequeues — and the
// residual chain — observe each producer's elements in enqueue order.
// A consumer may legitimately observe an empty queue (weak memory can
// hide a linked node from an unsynchronized reader), so sawEmpty is an
// allowed outcome here, unlike the stack.
//
// The retry loops are awaits (AwaitDo). Their failed iterations never
// plain-store at all — linking is a CAS — and the tail-helping CAS a
// failed iteration may perform is exactly the value-changing-update
// case the AwaitDo contract covers: if it succeeded, the next
// iteration's reads cannot repeat this one's rf vector (atomicity
// forbids two mo-adjacent updates of one rf source), so the wasteful
// filter never prunes an iteration that helped.
type msqueueWorkload struct {
	iters         int
	badLink       bool // seeded bug: enqueue links with a plain store, not CAS
	producersOnly bool // every thread produces (the shape that races the bad link)
	bounded       bool // differential oracle: pigeonhole-bounded plain retry loops
}

// MSQueue returns the Michael–Scott queue workload: ceil(n/2)
// producers, the rest consumers, iters enqueues per producer.
func MSQueue(iters int) workload.Workload { return &msqueueWorkload{iters: iters} }

// MSQueueBounded returns the bounded-loop twin: the same queue with its
// CAS retries encoded as pigeonhole-bounded plain loops instead of
// awaits — the differential oracle for the await reduction.
func MSQueueBounded(iters int) workload.Workload {
	return &msqueueWorkload{iters: iters, bounded: true}
}

// MSQueueBadLink returns the seeded-bug variant: every thread is a
// producer and the enqueue links its node with a plain store instead
// of a CAS, so two racing producers overwrite one link and lose an
// element — caught by the conservation spec.
func MSQueueBadLink() workload.Workload {
	return &msqueueWorkload{iters: 1, badLink: true, producersOnly: true}
}

// MSQueueBadLinkBounded is the bounded-loop twin of MSQueueBadLink, so
// the differential also pins a violating verdict across encodings.
func MSQueueBadLinkBounded() workload.Workload {
	return &msqueueWorkload{iters: 1, badLink: true, producersOnly: true, bounded: true}
}

func (w *msqueueWorkload) split(nthreads int) (producers, consumers int) {
	if w.producersOnly {
		return nthreads, 0
	}
	producers = (nthreads + 1) / 2
	return producers, nthreads - producers
}

func (w *msqueueWorkload) Name() string {
	name := "structs/msqueue"
	if w.badLink {
		name = "structs/msqueue-badlink"
	}
	if w.bounded {
		name += "/bounded"
	}
	return name
}

func (w *msqueueWorkload) Doc() string {
	switch {
	case w.badLink:
		return "Michael-Scott queue with a plain-store enqueue link (study case: lost element)"
	case w.bounded:
		return "Michael-Scott queue, bounded-loop encoding (differential oracle for the await reduction)"
	}
	return "Michael-Scott lock-free queue (FIFO spec: conservation + per-producer order)"
}

func (w *msqueueWorkload) Buggy() bool         { return w.badLink }
func (w *msqueueWorkload) Threads() (int, int) { return 2, 0 }

func (w *msqueueWorkload) DefaultSpec() *vprog.BarrierSpec {
	// Acquire loads pair with the release link/swing CASes so a
	// consumer that sees a node also sees its link word; the record
	// store is thread-local bookkeeping.
	return vprog.NewSpec().
		Def("msq.head_read", vprog.Acq).
		Def("msq.tail_read", vprog.Acq).
		Def("msq.next_read", vprog.Acq).
		Def("msq.link_cas", vprog.AcqRel).
		Def("msq.tail_cas", vprog.AcqRel).
		Def("msq.head_cas", vprog.AcqRel).
		Def("msq.record", vprog.Rlx)
}

// SymGroups: producers are interchangeable among themselves and so are
// consumers; the two roles are distinct groups. (The whole-set group is
// NOT symmetric — vprog's validation drops it if declared, which the
// asymmetry test pins.)
func (w *msqueueWorkload) SymGroups(nthreads int) [][]int {
	p, _ := w.split(nthreads)
	return append(workload.Group(0, p), workload.Group(p, nthreads)...)
}

func (w *msqueueWorkload) ProgramName(nthreads int) string {
	return fmt.Sprintf("%s/t%d-i%d", w.Name(), nthreads, w.iters)
}

func (w *msqueueWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) workload.Ops {
	producers, consumers := w.split(nthreads)
	iters := w.iters
	head := env.Var("msq.head", dummyID).TagTid(nodeShift, nodeBias)
	tail := env.Var("msq.tail", dummyID).TagTid(nodeShift, nodeBias)
	dnext := env.Var("msq.next.dummy", 0).TagTid(nodeShift, nodeBias)
	nexts := make([][]*vprog.Var, producers)
	for t := 0; t < producers; t++ {
		nexts[t] = nodeVars(env, "msq.next", t, iters)
	}
	total := producers * iters
	// Dequeue attempts are split evenly across consumers; recorded
	// outcomes live in per-consumer tagged replicas.
	share := func(c int) int {
		n := total / consumers
		if c < total%consumers {
			n++
		}
		return n
	}
	recs := make([][]*vprog.Var, consumers)
	for c := 0; c < consumers; c++ {
		recs[c] = nodeVars(env, "msq.deq", producers+c, share(c))
	}
	nextOf := func(id uint64) *vprog.Var {
		if id == dummyID {
			return dnext
		}
		t, k := decodeNode(id)
		return nexts[t][k]
	}
	// The barrier modes, looked up once per build and not in the attempt
	// closures, which every replay of every popped state runs again (an
	// unknown point panics here).
	tailRead := spec.M("msq.tail_read")
	nextRead := spec.M("msq.next_read")
	linkCAS := spec.M("msq.link_cas")
	tailCAS := spec.M("msq.tail_cas")
	headRead := spec.M("msq.head_read")
	headCAS := spec.M("msq.head_cas")
	record := spec.M("msq.record")
	badLink := w.badLink

	// One enqueue attempt: read the tail and its link word; link the
	// new node if the tail is current (then swing the tail over it),
	// else help the lagging tail forward. Reports success.
	enqAttempt := func(m vprog.Mem, id uint64) bool {
		tl := m.Load(tail, tailRead)
		nx := m.Load(nextOf(tl), nextRead)
		if nx == 0 {
			done := false
			if badLink {
				m.Store(nextOf(tl), id, linkCAS)
				done = true
			} else {
				_, done = m.CmpXchg(nextOf(tl), 0, id, linkCAS)
			}
			if done {
				// Swing the tail; a failure means someone helped.
				m.CmpXchg(tail, tl, id, tailCAS)
				return true
			}
		} else {
			// Tail lags behind a linked node: help it forward.
			m.CmpXchg(tail, tl, nx, tailCAS)
		}
		m.Pause()
		return false
	}
	// One dequeue attempt: the outcome lands in *got (incomplete =
	// retry). The lagging-tail help path retries without Pause, as the
	// bounded encoding's continue did.
	deqAttempt := func(m vprog.Mem, got *uint64) bool {
		hd := m.Load(head, headRead)
		nx := m.Load(nextOf(hd), nextRead)
		if nx == 0 {
			*got = sawEmpty
			return true
		}
		tl := m.Load(tail, tailRead)
		if hd == tl {
			// The tail lags behind the linked node: help before
			// advancing head past it.
			m.CmpXchg(tail, tl, nx, tailCAS)
			return false
		}
		if _, ok := m.CmpXchg(head, hd, nx, headCAS); ok {
			*got = nx
			return true
		}
		m.Pause()
		return false
	}

	// The await encoding.
	producer := func(m vprog.Mem) {
		t := m.TID()
		for k := 0; k < iters; k++ {
			id := nodeID(t, k)
			m.AwaitDo(func() bool { return enqAttempt(m, id) })
		}
	}
	consumer := func(m vprog.Mem) {
		c := m.TID() - producers
		for k := range recs[c] {
			got := uint64(incomplete)
			m.AwaitDo(func() bool { return deqAttempt(m, &got) })
			m.Store(recs[c][k], got, record)
		}
	}

	// The bounded oracle encoding (PR 9): every unproductive iteration
	// coincides with another thread's successful CAS on head, tail or a
	// link word (or a lagging tail this thread itself then helps, at
	// most one extra iteration per operation) — and the other threads
	// perform at most three such successes per element program-wide.
	bound := 3*(nthreads-1)*iters + 4
	boundedProducer := func(m vprog.Mem) {
		t := m.TID()
		for k := 0; k < iters; k++ {
			id := nodeID(t, k)
			done := false
			for attempt := 0; attempt < bound && !done; attempt++ {
				done = enqAttempt(m, id)
			}
			m.Assert(done, "msqueue: enqueue retry bound exhausted")
		}
	}
	boundedConsumer := func(m vprog.Mem) {
		c := m.TID() - producers
		for k := range recs[c] {
			got := uint64(incomplete)
			for attempt := 0; attempt < bound && got == incomplete; attempt++ {
				deqAttempt(m, &got)
			}
			m.Assert(got != incomplete, "msqueue: dequeue retry bound exhausted")
			m.Store(recs[c][k], got, record)
		}
	}

	prodBody, consBody := producer, consumer
	if w.bounded {
		prodBody, consBody = boundedProducer, boundedConsumer
	}
	var threads []vprog.ThreadFunc
	for t := 0; t < producers; t++ {
		threads = append(threads, prodBody)
	}
	for c := 0; c < consumers; c++ {
		threads = append(threads, consBody)
	}

	final := func(load func(*vprog.Var) uint64) (bool, string) {
		seen := make(map[uint64]int, total)
		// lastK tracks, per (observer, producer), the last element
		// index seen: FIFO demands each producer's elements appear in
		// enqueue order within any single observation sequence.
		observe := func(lastK []int, v uint64, where string) string {
			t, k := decodeNode(v)
			if t < 0 || t >= producers || k >= iters {
				return fmt.Sprintf("msqueue: alien element %#x in %s", v, where)
			}
			if lastK[t] >= k {
				return fmt.Sprintf("msqueue: producer %d order violated in %s: element %d after %d", t, where, k, lastK[t])
			}
			lastK[t] = k
			seen[v]++
			return ""
		}
		for c := range recs {
			lastK := make([]int, producers)
			for t := range lastK {
				lastK[t] = -1
			}
			for k, slot := range recs[c] {
				switch v := load(slot); v {
				case incomplete:
					return false, fmt.Sprintf("msqueue: dequeue %d of consumer %d did not complete", k, c)
				case sawEmpty:
					// Allowed: an unsynchronized consumer may miss a
					// linked node; conservation still has to hold.
				default:
					if msg := observe(lastK, v, fmt.Sprintf("consumer %d", c)); msg != "" {
						return false, msg
					}
				}
			}
		}
		// The residual chain hangs off the current head node (itself
		// dummy or already consumed).
		hd := load(head)
		if hd != dummyID {
			if t, k := decodeNode(hd); t < 0 || t >= producers || k >= iters {
				return false, fmt.Sprintf("msqueue: head holds alien element %#x", hd)
			}
		}
		lastK := make([]int, producers)
		for t := range lastK {
			lastK[t] = -1
		}
		for cur, steps := load(nextOf(hd)), 0; cur != 0; steps++ {
			if steps > total {
				return false, "msqueue: chain is cyclic or overlong"
			}
			if msg := observe(lastK, cur, "residual chain"); msg != "" {
				return false, msg
			}
			cur = load(nextOf(cur))
		}
		for t := 0; t < producers; t++ {
			for k := 0; k < iters; k++ {
				if n := seen[nodeID(t, k)]; n != 1 {
					return false, fmt.Sprintf("msqueue: element %#x seen %d times (duplicated or lost)", nodeID(t, k), n)
				}
			}
		}
		if len(seen) != total {
			return false, "msqueue: alien elements recorded"
		}
		return true, ""
	}
	return workload.Ops{Threads: threads, Final: final}
}
