package core

import "sync"

// Deque sizing. A deque starts at dequeInitCap and doubles whenever it is
// full, without a ceiling: what a cap turns away needs a second queue, a
// second queue is a second pop order, and both a depth-first frontier
// (treiber t=4 holds 32k states by 1.35M pops) and an exact resume need
// there to be one. What bounds a run's memory is Budget.MaxMemBytes: it
// counts the graphs the queued states hold, not just the ring's cells.
const (
	dequeInitCap = 256
	// stealBatch caps how many states one steal operation moves. Thieves
	// take up to half the victim's queue, amortizing the lock traffic,
	// but never more than this — a huge transfer would just invert the
	// imbalance.
	stealBatch = 32
)

// deque is one worker's work deque, the per-worker shard of the
// exploration frontier. The owner pushes and pops at the tail: LIFO
// order is depth-first exploration, which keeps parent graphs hot in
// cache and the frontier small. Thieves remove batches from the head,
// the FIFO end, where the shallowest states — the roots of the largest
// unexplored subtrees — sit, so one steal buys a thief a long run of
// local work.
//
// A plain mutex per deque keeps the implementation obviously correct
// under the race detector. The owner's acquisition is uncontended
// unless a thief is active on this deque, and executing one state
// (replay of every thread plus a consistency check) costs microseconds
// against the lock's nanoseconds.
type deque struct {
	mu   sync.Mutex
	buf  []ExploreState // ring buffer; len is zero or a power of two
	head int            // index of the oldest state (steal end)
	size int
	peak int // the largest size ever reached
}

// pushTail adds st at the LIFO end, doubling the ring when it is full.
func (d *deque) pushTail(st ExploreState) {
	d.mu.Lock()
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)&(len(d.buf)-1)] = st
	d.size++
	d.peak = max(d.peak, d.size)
	d.mu.Unlock()
}

// popTail removes the most recently pushed state (the DFS child).
func (d *deque) popTail() (ExploreState, bool) {
	d.mu.Lock()
	if d.size == 0 {
		d.mu.Unlock()
		return ExploreState{}, false
	}
	d.size--
	i := (d.head + d.size) & (len(d.buf) - 1)
	st := d.buf[i]
	d.buf[i] = ExploreState{} // drop the graph reference
	d.mu.Unlock()
	return st, true
}

// stealHead moves up to max states from the FIFO end into out and
// returns how many were taken — half the queue, so repeated steals
// converge on balance instead of ping-ponging single items.
func (d *deque) stealHead(out []ExploreState, max int) int {
	d.mu.Lock()
	n := (d.size + 1) / 2
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		j := (d.head + i) & (len(d.buf) - 1)
		out[i] = d.buf[j]
		d.buf[j] = ExploreState{}
	}
	if n > 0 {
		d.head = (d.head + n) & (len(d.buf) - 1)
		d.size -= n
	}
	d.mu.Unlock()
	return n
}

// snapshot appends the deque's states to dst in head→tail (oldest→
// newest) order without removing them — the non-destructive read the
// periodic checkpointer uses while the owner is quiesced. Re-pushing a
// snapshot in this order with pushTail reproduces the deque exactly,
// so the next popTail after a resume returns the same state the
// interrupted run would have popped.
func (d *deque) snapshot(dst []ExploreState) []ExploreState {
	d.mu.Lock()
	for i := 0; i < d.size; i++ {
		dst = append(dst, d.buf[(d.head+i)&(len(d.buf)-1)])
	}
	d.mu.Unlock()
	return dst
}

// grow doubles the ring (or allocates the initial one), called with the
// lock held.
func (d *deque) grow() {
	ncap := dequeInitCap
	if len(d.buf) > 0 {
		ncap = len(d.buf) * 2
	}
	nbuf := make([]ExploreState, ncap)
	for i := 0; i < d.size; i++ {
		nbuf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = nbuf, 0
}
