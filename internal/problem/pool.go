package problem

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// PoolStats is a snapshot of the work a Pool has performed since
// creation. Busy and Jobs are indexed by slot; their sums are the
// pool-wide totals.
type PoolStats struct {
	Workers  int
	Busy     []time.Duration // cumulative time per slot, store re-check and run
	Jobs     []int           // completed runs per slot (canceled runs included)
	Canceled int             // runs that ended Canceled or never got a slot
}

// TotalBusy sums the per-slot busy time (the CPU-side cost the pool
// amortized across slots).
func (s PoolStats) TotalBusy() time.Duration {
	var t time.Duration
	for _, d := range s.Busy {
		t += d
	}
	return t
}

// Pool bounds how many whole runs Resolve executes at once: each run
// holds one slot from its late store re-check to its persist. A run's
// checker staffs its own WorkersPerRun workers, so a pool of Workers
// slots runs at most Workers × WorkersPerRun workers in all.
//
// It is safe for concurrent use: overlapping Resolve calls on one pool
// share the same slots, so no more than Workers runs are ever in
// flight.
type Pool struct {
	// Workers is the concurrency bound, fixed at NewPool time.
	Workers int

	slots chan int // free slot ids; receiving acquires a slot

	mu       sync.Mutex
	busy     []time.Duration
	jobs     []int
	canceled int
}

// NewPool returns a pool with the given concurrency; workers <= 0
// selects GOMAXPROCS, the "as fast as the hardware allows" default.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		Workers: workers,
		slots:   make(chan int, workers),
		busy:    make([]time.Duration, workers),
		jobs:    make([]int, workers),
	}
	for i := 0; i < workers; i++ {
		p.slots <- i
	}
	return p
}

// Stats returns a copy of the pool's cumulative accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:  p.Workers,
		Busy:     append([]time.Duration(nil), p.busy...),
		Jobs:     append([]int(nil), p.jobs...),
		Canceled: p.canceled,
	}
}

// acquire blocks until a slot is free or ctx is done. A slot won in the
// same instant ctx died goes straight back, and a run that never got a
// slot counts as canceled: a canceled run never starts.
func (p *Pool) acquire(ctx context.Context) (int, bool) {
	select {
	case <-ctx.Done():
	case slot := <-p.slots:
		if ctx.Err() == nil {
			return slot, true
		}
		p.slots <- slot
	}
	p.mu.Lock()
	p.canceled++
	p.mu.Unlock()
	return 0, false
}

// release books a run that held slot for d and frees the slot.
func (p *Pool) release(slot int, d time.Duration, r *core.Result) {
	p.mu.Lock()
	p.busy[slot] += d
	p.jobs[slot]++
	if r.Verdict == core.Canceled {
		p.canceled++
	}
	p.mu.Unlock()
	p.slots <- slot
}

// ErrNotStarted is the Err of a problem Resolve never ran: its context
// was canceled while it queued for a slot, or a stored failure failed
// the call first.
var ErrNotStarted = errors.New("canceled before start")

// notStarted is the result of a problem ErrNotStarted kept from running.
func notStarted() *core.Result {
	return &core.Result{Verdict: core.Canceled, Err: ErrNotStarted, Message: ErrNotStarted.Error()}
}
