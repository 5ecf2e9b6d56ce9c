package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/vprog"
)

// Job is one AMC invocation: a checker configuration applied to one
// program. Checkers are cheap structs; each job gets its own so that
// concurrent runs never share mutable state.
type Job struct {
	Checker *Checker
	Program *vprog.Program
	// Wrap, when non-nil, runs on the job's slot in place of the bare
	// checker run: it decides whether to call run (at most once) and
	// returns the job's result. The verdict-store lifecycle of package
	// problem hangs here — a late store hit skips the run, and the verdict
	// is persisted the moment the run ends, not when the batch does.
	Wrap func(run func() *Result) *Result
}

// PoolStats is a snapshot of the work a Pool has performed since
// creation. Busy and Jobs are indexed by worker slot; their sums are
// the pool-wide totals.
type PoolStats struct {
	Workers  int
	Busy     []time.Duration // cumulative in-checker time per worker slot
	Jobs     []int           // completed jobs per worker slot (canceled runs included)
	Canceled int             // jobs that ended Canceled (short-circuited)
}

// TotalBusy sums the per-worker busy time (the CPU-side cost the pool
// amortized across workers).
func (s PoolStats) TotalBusy() time.Duration {
	var t time.Duration
	for _, d := range s.Busy {
		t += d
	}
	return t
}

// Pool bounds how many whole runs (jobs submitted to RunAll) execute at
// once: each job holds one slot for its whole run. A job's checker
// staffs its own WorkersPerRun workers, so a pool of Workers slots runs
// at most Workers × WorkersPerRun workers in all.
//
// It is safe for concurrent use: overlapping RunAll calls (e.g. the
// optimizer's speculative ladder verifying several candidate specs at
// once) share the same slots, so no more than Workers runs are ever in
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
// same instant ctx died goes straight back: a canceled job never runs.
func (p *Pool) acquire(ctx context.Context) (int, bool) {
	select {
	case <-ctx.Done():
		return 0, false
	case slot := <-p.slots:
		if ctx.Err() != nil {
			p.slots <- slot
			return 0, false
		}
		return slot, true
	}
}

// RunAll executes every job on the pool and returns the results in job
// order. Jobs are admitted in index order — the submitting loop takes
// each job's slot before its goroutine starts — so a one-slot pool runs
// them strictly in sequence. When failFast is set, the first completed
// non-OK result cancels the jobs still queued or running; those return
// Canceled results. Jobs whose context is canceled before they acquire
// a worker never run a checker at all; their Err is ErrNotStarted.
func (p *Pool) RunAll(ctx context.Context, jobs []Job, failFast bool) []*Result {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		slot, ok := p.acquire(ctx)
		if !ok {
			results[i] = &Result{Verdict: Canceled, Err: ErrNotStarted, Message: ErrNotStarted.Error()}
			p.mu.Lock()
			p.canceled++
			p.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := func() *Result { return job.Checker.RunCtx(ctx, job.Program) }
			t0 := time.Now()
			var res *Result
			if job.Wrap != nil {
				res = job.Wrap(run)
			} else {
				res = run()
			}
			d := time.Since(t0)
			results[i] = res
			// Cancel before the slot is free again, or the next job in
			// line could start a run the failure has already doomed.
			if failFast && res.Verdict != OK && res.Verdict != Canceled {
				cancel()
			}
			p.mu.Lock()
			p.busy[slot] += d
			p.jobs[slot]++
			if res.Verdict == Canceled {
				p.canceled++
			}
			p.mu.Unlock()
			p.slots <- slot
		}()
	}
	wg.Wait()
	return results
}

// ErrNotStarted is the Err of a job RunAll never admitted: its context
// was canceled while it queued for a slot, so no checker ran for it.
var ErrNotStarted = errors.New("canceled before start")
