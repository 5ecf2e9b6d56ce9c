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
		if !d.pushTail(mark(i)) {
			t.Fatalf("push %d rejected below the bound", i)
		}
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

// TestDequeBound: pushes beyond the hard cap are rejected (the caller
// spills them), and the deque still drains correctly afterwards.
func TestDequeBound(t *testing.T) {
	var d deque
	for i := 0; i < dequeMaxCap; i++ {
		if !d.pushTail(mark(i)) {
			t.Fatalf("push %d rejected below the bound", i)
		}
	}
	if d.pushTail(mark(dequeMaxCap)) {
		t.Fatal("push beyond dequeMaxCap must be rejected")
	}
	st, ok := d.popTail()
	if !ok || idOf(st) != dequeMaxCap-1 {
		t.Fatalf("popTail after bound = (%d, %v)", idOf(st), ok)
	}
	if !d.pushTail(mark(dequeMaxCap)) {
		t.Fatal("push must succeed again after a pop")
	}
}

// TestOneSlotPoolDoesNotAttach: a run is attached to its pool only when
// the pool has a slot to lend. Attached to a one-slot pool, a run with
// WorkersPerRun 2 would wait for a helper that cannot come, and its
// second seat sat empty for the whole run.
func TestOneSlotPoolDoesNotAttach(t *testing.T) {
	c := &Checker{WorkersPerRun: 2}
	if got := NewPool(1).attach(c); got.pool != nil || got == c {
		t.Errorf("one-slot pool: run attached (pool %v) or caller's checker reused", got.pool)
	}
	if p := NewPool(2); p.attach(c).pool != p || c.pool != nil {
		t.Errorf("two-slot pool: run not attached, or caller's checker mutated")
	}
}
