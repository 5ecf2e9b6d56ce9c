package core

import (
	"testing"

	"repro/internal/graph"
)

// mark builds a distinguishable state: deque tests only need identity,
// so each state carries a unique forcedR index.
func mark(i int) ExploreState {
	return ExploreState{hasForced: true, forcedR: graph.EventID{Thread: 0, Index: i}}
}

func idOf(st ExploreState) int { return st.forcedR.Index }

// TestDequeLIFOAndFIFO: the owner end behaves as a stack, the steal end
// as a queue, across ring growth.
func TestDequeLIFOAndFIFO(t *testing.T) {
	var d deque
	const n = 1000 // forces several grow() doublings past dequeInitCap
	for i := 0; i < n; i++ {
		d.pushTail(mark(i))
	}
	// Steal the FIFO end: the oldest states come out first.
	var buf [stealBatch]ExploreState
	got := d.stealHead(buf[:], 3)
	if got != 3 {
		t.Fatalf("stealHead took %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if idOf(buf[i]) != i {
			t.Fatalf("steal %d returned state %d, want %d", i, idOf(buf[i]), i)
		}
	}
	// Pop the LIFO end: the newest remaining states come out first.
	for i := n - 1; i >= 3; i-- {
		st, ok := d.popTail()
		if !ok || idOf(st) != i {
			t.Fatalf("popTail returned (%v, %v), want state %d", idOf(st), ok, i)
		}
	}
	if _, ok := d.popTail(); ok {
		t.Fatal("deque should be empty")
	}
}

// TestDequeStealHalf: a thief takes half the queue (rounded up), capped
// at the batch size, and a singleton queue is stealable.
func TestDequeStealHalf(t *testing.T) {
	var d deque
	var buf [stealBatch]ExploreState
	d.pushTail(mark(0))
	if got := d.stealHead(buf[:], stealBatch); got != 1 {
		t.Fatalf("singleton steal took %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		d.pushTail(mark(i))
	}
	if got := d.stealHead(buf[:], stealBatch); got != 5 {
		t.Fatalf("steal of 10 took %d, want half (5)", got)
	}
	if d.size != 5 {
		t.Fatalf("victim retains %d, want 5", d.size)
	}
}

// TestDequeGrowth: a deque has no bound. 100,000 pushes all land, and
// every doubling on the way copies a wrapped ring — a steal out of the
// full ring moves the head off cell 0, and the refill wraps — with the
// steal end still FIFO, the snapshot still oldest→newest and the owner
// end still LIFO afterwards.
func TestDequeGrowth(t *testing.T) {
	const n = 100000
	var d deque
	var buf [stealBatch]ExploreState
	next, oldest, peak := 0, 0, 0 // ids: next to push, at the head; largest size seen
	doublings := 0
	push := func() {
		d.pushTail(mark(next))
		next++
		peak = max(peak, next-oldest)
	}
	steal := func() {
		got := d.stealHead(buf[:], stealBatch)
		if got != stealBatch {
			t.Fatalf("stealHead took %d of %d, want %d", got, next-oldest, stealBatch)
		}
		for _, st := range buf[:got] {
			if idOf(st) != oldest {
				t.Fatalf("steal returned state %d, want the oldest, %d", idOf(st), oldest)
			}
			oldest++
		}
	}
	fill := func() {
		for d.size < len(d.buf) {
			push()
		}
	}
	for push(); next < n; {
		fill()
		steal()
		fill()
		if d.head == 0 {
			t.Fatalf("ring of %d is full but not wrapped: the doubling would copy nothing out of order", len(d.buf))
		}
		was := len(d.buf)
		push()
		if len(d.buf) != 2*was {
			t.Fatalf("push into a full ring of %d left it at %d", was, len(d.buf))
		}
		doublings++
		snap := d.snapshot(nil)
		if len(snap) != next-oldest {
			t.Fatalf("snapshot holds %d states, the deque %d", len(snap), next-oldest)
		}
		for i, st := range snap {
			if idOf(st) != oldest+i {
				t.Fatalf("after doubling to %d: snapshot[%d] is state %d, want %d", len(d.buf), i, idOf(st), oldest+i)
			}
		}
	}
	if doublings < 3 {
		t.Fatalf("%d pushes, %d doublings: the test did not grow the ring", next, doublings)
	}
	if d.size != next-oldest || d.peak != peak {
		t.Fatalf("size %d, peak %d; want %d and %d", d.size, d.peak, next-oldest, peak)
	}
	for i := next - 1; i >= oldest; i-- {
		if st, ok := d.popTail(); !ok || idOf(st) != i {
			t.Fatalf("popTail returned (%d, %v), want state %d", idOf(st), ok, i)
		}
	}
	if _, ok := d.popTail(); ok || d.peak != peak {
		t.Fatalf("after the drain: popped again %v, peak %d (want %d)", ok, d.peak, peak)
	}
}
