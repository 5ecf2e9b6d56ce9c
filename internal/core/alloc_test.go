package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	_ "repro/internal/structs" // registers the structure workloads
	"repro/internal/vprog"
	"repro/internal/workload"
)

// Allocation-regression bars for the AMC hot path, each at about 1.5x
// the measured steady state (1.15x on the benchmark's own cell, which
// repeats to the object) so that it trips on a real regression — a
// release that is no longer made, a replay that allocates per read
// again, a reintroduced per-state string key — and not on noise. Gated
// out of -short (AllocsPerRun wants quiescent, repeated runs); `make
// allocs` runs them, and CI's build job runs that.

// allocated is what a few complete runs of one program allocated: per
// popped state, which is what a step costs, and per run, which is what
// the process pays — a change that pops fewer states moves the first up
// and the second down.
type allocated struct {
	objects, bytes       float64 // per popped state
	runObjects, runBytes float64 // per run
}

// perState runs p to completion a few times and reports what it
// allocated.
func perState(t *testing.T, p *vprog.Program) allocated {
	t.Helper()
	run := func() *core.Result {
		res := core.New(mm.WMM).Run(p)
		if !res.Ok() {
			t.Fatal(res)
		}
		return res
	}
	run() // warm the process-wide scratch pools
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	popped := 0
	for i := 0; i < runs; i++ {
		popped += run().Stats.Popped
	}
	runtime.ReadMemStats(&after)
	objects, bytes := float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
	return allocated{objects / float64(popped), bytes / float64(popped), objects / runs, bytes / runs}
}

// TestAllocsExploreStep bounds the allocations per popped exploration
// state on the MCS client — the per-step cost of clone + replay +
// consistency check + dedup, amortized over a full verification run of
// 56 states, short enough that the fixed costs of a run (program build,
// the visited set's shards, the free lists' first fills) weigh on it.
func TestAllocsExploreStep(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	alg := locks.ByName("mcs")
	objects := perState(t, harness.MutexClient(alg, alg.DefaultSpec(), 2, 1)).objects
	t.Logf("mcs t=2: %.1f objects per popped state", objects)
	// Measured 9.7 to 10.5 objects per popped graph (10.6 to 11.5 before the
	// replay memo, 12.4 before replay snapshots were recycled, 25.3 before
	// relation slabs and graph headers were and replay stopped allocating
	// per read); bar at 17. A run this short misses its memo far more
	// often than treiber t=3 does — 36 distinct rows for 65 replays — and
	// pays for each miss in replay closures, as every pop did before, but
	// not per entry: entries are carved from arenas, so the memo costs a
	// few chunk allocations per run rather than one per row.
	const maxPerStep = 17
	if objects > maxPerStep {
		t.Errorf("explore step allocates %.1f objects/graph, regression bar is %d", objects, maxPerStep)
	}
}

// TestAllocsTreiberT3 pins the benchmark's own cell (treiber-t3-seq in
// BENCHMARK.json): 30,831 states, long enough that only the steady state
// counts. The run lives on a 2 MB heap, under Go's 4 MB minimum goal, so
// its garbage is its collection count: 36.4 MB and 14 cycles in 0.2 s
// before rf rows were 8-byte cells and replay results were shared (30.3
// objects and 4,589 B per state when relations, headers and replay
// records all went to the allocator; 6.8 objects and 463 B before the
// replay memo). It measures 3.8 to 3.9 objects and 414 to 434 B per
// state, 119.0k objects and 13.4 MB per run; the bars are 1.15x the
// highest. What is left, per state, in objects (allocation profile,
// sampling every object): 3.0 for an appended event and the
// copy-on-write rows that take it (mkEvent,
// and Append growing the extended thread's event and rf rows, which
// clones share — by exactly one slot, since the next Clone clamps them
// again), 0.4 mo rows (InsertMo), 0.2 closures the workload makes (one
// per AwaitDo call of a replay, in internal/structs — 2.7 when every pop
// replayed; now only a memo miss replays, 2,985 of 34,629), 0.1 headers
// and slabs the free lists could not serve, and 0.02 for the arenas the
// memo's entries and the steps' shared results are carved from. The
// per-run bars are what holds a regression that a change of the state
// count would hide.
func TestAllocsTreiberT3(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	a := perState(t, workload.Program(workload.ByName("structs/treiber"), nil, 3))
	t.Logf("treiber t=3: %.1f objects, %.0f B per popped state; %.1fk objects, %.1f MB per run",
		a.objects, a.bytes, a.runObjects/1e3, a.runBytes/1e6)
	if a.objects > 4.5 {
		t.Errorf("treiber t=3 allocates %.1f objects per popped state, regression bar is 4.5", a.objects)
	}
	if a.bytes > 500 {
		t.Errorf("treiber t=3 allocates %.0f B per popped state, regression bar is 500", a.bytes)
	}
	if a.runObjects > 137e3 {
		t.Errorf("treiber t=3 allocates %.1fk objects per run, regression bar is 137k", a.runObjects/1e3)
	}
	if a.runBytes > 15.4e6 {
		t.Errorf("treiber t=3 allocates %.1f MB per run, regression bar is 15.4 MB", a.runBytes/1e6)
	}
}

// TestAllocsLitmus bounds a complete small-litmus verification — the
// fixed overhead path (program build, root graph, result) plus a small
// exploration, where the free lists start empty and serve little.
func TestAllocsLitmus(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	p := harness.Litmus("MP", false)
	allocs := testing.AllocsPerRun(5, func() {
		res := core.New(mm.WMM).Run(p)
		if res.Verdict != core.SafetyViolation {
			t.Fatal(res)
		}
	})
	t.Logf("MP: %.0f objects", allocs)
	// Measured 164 (210 before); bar at 250.
	if allocs > 250 {
		t.Errorf("MP verification allocates %.0f objects, regression bar is 250", allocs)
	}
}
