package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randDigraph builds a random n×n relation from packed edge values.
func randDigraph(edges []uint16, n int) *BitMat {
	m := NewBitMat(n)
	for _, e := range edges {
		m.Set(int(e)%n, int(e>>4)%n)
	}
	return m
}

// TestAcyclicMatchesClosure: on random digraphs (cyclic and not, with
// self-loops), every entry point of the closure-free engine must agree
// with the transitive-closure oracle, whatever seed it is handed.
func TestAcyclicMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(edges []uint16, nRaw uint8) bool {
		n := int(nRaw%14) + 2
		m := randDigraph(edges, n)
		want := !m.HasCycle()
		if m.Acyclic() != want {
			return false
		}
		if m.AcyclicSeeded(nil) != want {
			return false
		}
		// A garbage seed of the right length must not change the answer.
		garbage := make([]int32, n)
		for i := range garbage {
			garbage[i] = int32(rng.Intn(n))
		}
		if m.AcyclicSeeded(garbage) != want {
			return false
		}
		if m.AcyclicWithOrder(append([]int32(nil), garbage...)) != want {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAcyclicDAGWithOrder: forward edges under a random permutation
// form a DAG; seeding the check with the generating order must hit the
// fast path (observable through the engine counters) and answer true.
func TestAcyclicDAGWithOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(60)
		order := rng.Perm(n)
		pos := make([]int, n)
		o32 := make([]int32, n)
		for k, v := range order {
			pos[v] = k
			o32[k] = int32(v)
		}
		m := NewBitMat(n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if pos[i] < pos[j] {
				m.Set(i, j)
			}
		}
		before := AcyclicCountersNow()
		if !m.AcyclicSeeded(o32) {
			t.Fatalf("trial %d: DAG rejected", trial)
		}
		if d := AcyclicCountersNow().Sub(before); d.SeedHits != 1 || d.KahnPasses != 0 {
			t.Fatalf("trial %d: valid order missed the fast path: %+v", trial, d)
		}
		if !m.Acyclic() {
			t.Fatalf("trial %d: Acyclic disagrees", trial)
		}
	}
}

// TestAcyclicWithOrderRefresh: a violated seed must fall back to the
// full pass, and on success the order is refreshed to one the next
// call verifies without a pass; on failure the seed is left untouched.
func TestAcyclicWithOrderRefresh(t *testing.T) {
	// 0 -> 1 -> 2, seeded with the reversed (violated) order.
	m := NewBitMat(3)
	m.Set(0, 1)
	m.Set(1, 2)
	order := []int32{2, 1, 0}
	if !m.AcyclicWithOrder(order) {
		t.Fatal("chain rejected")
	}
	before := AcyclicCountersNow()
	if !m.AcyclicSeeded(order) {
		t.Fatal("refreshed order rejected")
	}
	if d := AcyclicCountersNow().Sub(before); d.SeedHits != 1 {
		t.Fatalf("refreshed order did not hit the fast path: %+v", d)
	}

	// Cyclic: the order must survive unchanged.
	c := NewBitMat(3)
	c.Set(0, 1)
	c.Set(1, 0)
	keep := []int32{0, 1, 2}
	saved := append([]int32(nil), keep...)
	if c.AcyclicWithOrder(keep) {
		t.Fatal("cycle accepted")
	}
	for i := range keep {
		if keep[i] != saved[i] {
			t.Fatal("failed check rewrote the caller's order")
		}
	}
}

// TestAcyclicOrderMalformed: wrong length (the grown-matrix case),
// duplicate entries and out-of-range entries must all be rejected as
// seeds — falling back to the full pass — and never change the answer
// or refresh anything.
func TestAcyclicOrderMalformed(t *testing.T) {
	m := NewBitMat(4)
	m.Set(0, 1)
	m.Set(1, 2)
	m.Set(2, 3)
	grownMat := NewBitMat(5)
	m.grownInto(grownMat)
	grownMat.Set(3, 4)

	short := []int32{0, 1, 2, 3} // valid for m, stale for the grown matrix
	if !grownMat.AcyclicWithOrder(short) {
		t.Fatal("grown DAG rejected with stale-length order")
	}
	if len(short) != 4 {
		t.Fatal("length-mismatched order was resized")
	}
	for _, bad := range [][]int32{
		{0, 0, 1, 2},  // duplicate
		{0, 1, 2, 9},  // out of range
		{0, 1, 2, -1}, // negative
	} {
		if !m.AcyclicSeeded(bad) {
			t.Fatalf("DAG rejected with malformed seed %v", bad)
		}
	}
	cyc := NewBitMat(2)
	cyc.Set(0, 1)
	cyc.Set(1, 0)
	if cyc.AcyclicSeeded([]int32{0, 0}) {
		t.Fatal("cycle accepted under malformed seed")
	}
}

// TestAcyclicSelfLoopAndEmpty: corner shapes.
func TestAcyclicSelfLoopAndEmpty(t *testing.T) {
	if !NewBitMat(0).Acyclic() {
		t.Error("empty relation must be acyclic")
	}
	m := NewBitMat(3)
	if !m.Acyclic() {
		t.Error("edgeless relation must be acyclic")
	}
	m.Set(1, 1)
	if m.Acyclic() {
		t.Error("self-loop must count as a cycle")
	}
	if m.AcyclicSeeded([]int32{0, 1, 2}) {
		t.Error("self-loop must defeat the seeded fast path")
	}
}

// TestAcyclicZeroAlloc: the engine's steady state allocates nothing —
// the scratch (indegrees, worklist, seen masks) all comes from pools.
func TestAcyclicZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	m := NewBitMat(130)
	for i := 0; i+1 < 130; i++ {
		m.Set(i, i+1)
	}
	order := make([]int32, 130)
	for i := range order {
		order[i] = int32(i)
	}
	m.Acyclic() // warm the pools
	if allocs := testing.AllocsPerRun(100, func() { m.Acyclic() }); allocs > 0 {
		t.Errorf("Acyclic allocates %.0f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.AcyclicSeeded(order) }); allocs > 0 {
		t.Errorf("AcyclicSeeded (hit) allocates %.0f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.AcyclicWithOrder(order) }); allocs > 0 {
		t.Errorf("AcyclicWithOrder (hit) allocates %.0f objects per run, want 0", allocs)
	}
}

// TestCrossCheckHook: the differential hook really does run the
// closure oracle alongside the engine (smoke — the corpus differential
// in internal/core flips it around full explorations).
func TestCrossCheckHook(t *testing.T) {
	CrossCheckAcyclic = true
	defer func() { CrossCheckAcyclic = false }()
	m := NewBitMat(4)
	m.Set(0, 1)
	m.Set(1, 2)
	if !m.Acyclic() || !m.AcyclicSeeded(nil) || !m.AcyclicWithOrder([]int32{0, 1, 2, 3}) {
		t.Fatal("DAG rejected under cross-check")
	}
	m.Set(2, 0)
	if m.Acyclic() {
		t.Fatal("cycle accepted under cross-check")
	}
}

// BenchmarkAcyclic measures the acyclicity engine in isolation on a
// union-shaped DAG of n=96 events (three transitive po chains plus
// deterministic forward cross edges — the sb ∪ rf ∪ mo ∪ fr shape the
// consistency predicates hand it): the transitive-closure oracle
// (HasCycle), the closure-free Kahn pass (Acyclic), and the
// order-seeded fast path (AcyclicWithOrder on a valid cached order).
func BenchmarkAcyclic(b *testing.B) {
	const n = 96
	m := NewBitMat(n)
	for c := 0; c < 3; c++ {
		lo := c * 32
		for i := lo; i < lo+32; i++ {
			for j := i + 1; j < lo+32; j++ {
				m.Set(i, j)
			}
		}
	}
	// Always low index to high, so the identity order is topological.
	seed := uint64(0x9e3779b97f4a7c15)
	for e := 0; e < 4*n; e++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		i := int(seed>>33) % n
		j := int(seed>>13) % n
		if i > j {
			i, j = j, i
		}
		if i != j {
			m.Set(i, j)
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for _, k := range []struct {
		name    string
		acyclic func() bool
	}{
		{"closure-n96", func() bool { return !m.HasCycle() }},
		{"kahn-n96", func() bool { return m.Acyclic() }},
		{"seeded-n96", func() bool { return m.AcyclicWithOrder(order) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			k.acyclic() // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !k.acyclic() {
					b.Fatal("the DAG was judged cyclic")
				}
			}
		})
	}
}
