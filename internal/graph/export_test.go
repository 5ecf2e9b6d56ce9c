package graph

import (
	"fmt"
	"slices"
	"sync"
)

// RandExtendHistory exposes the randomized exploration-history generator
// to the external tests of this directory, which may import internal/mm
// (mm imports graph, so the in-package tests cannot).
var RandExtendHistory = randExtendHistory

// PoisonOnRelease makes every retired slab all-ones and nils the slices
// of every retired header before it is parked, so that a read through a
// reference that outlived its release sees garbage or panics instead of
// a plausible graph. Toggle it only while no checker is running.
func PoisonOnRelease(on bool) {
	if !on {
		poisonHook = nil
		return
	}
	poisonHook = func(r *Rels, g *Graph) {
		if r != nil {
			for i := range r.slab {
				r.slab[i] = ^uint64(0)
			}
			r.Ev, r.tIdx, r.topo = nil, nil, nil
		}
		if g != nil {
			g.Threads, g.rf, g.Mo = nil, nil, nil
		}
	}
}

// diffRels describes the first difference between got and want — the
// dimension, the indexed events, the thread index or one of the seven
// matrices — or returns "" when there is none.
func diffRels(got, want *Rels) string {
	if got.N != want.N || got.nInit != want.nInit || len(got.Ev) != len(want.Ev) {
		return fmt.Sprintf("N=%d (%d inits, %d events indexed), want %d (%d, %d)", got.N, got.nInit, len(got.Ev), want.N, want.nInit, len(want.Ev))
	}
	for i, ev := range want.Ev {
		if got.Ev[i] != ev {
			return fmt.Sprintf("Ev[%d] = %v, want %v", i, got.Ev[i], ev)
		}
	}
	for t, row := range want.tIdx {
		if !slices.Equal(got.tIdx[t], row) {
			return fmt.Sprintf("tIdx[%d] = %v, want %v", t, got.tIdx[t], row)
		}
	}
	for i, name := range [numMats]string{"sb", "sbloc", "rf", "mo", "fr", "hb", "eco"} {
		if !got.mats[i].Equal(&want.mats[i]) {
			return name + " differs"
		}
	}
	return ""
}

// CrossCheckRestrict arms (or, with on false, disarms) the differential
// of Rels.Restrict: every relation set RelsOf derives for a revisit is
// compared with what BuildRels makes of the same graph, and its cached
// order with the union it claims to order. It returns what the armed
// period has seen so far: how many derivations, and the first one that
// disagreed ("" if none). Toggle it only while no checker is running.
func CrossCheckRestrict(on bool) (seen func() (derived int, mismatch string)) {
	if !on {
		restrictHook = nil
		return nil
	}
	var mu sync.Mutex
	var derived int
	var mismatch string
	restrictHook = func(r *Rels) {
		d := diffRels(r, BuildRels(r.G))
		if d == "" && r.topoState != topoNone {
			union := r.Sb.Clone()
			union.OrWith(r.RfM)
			union.OrWith(r.MoM)
			if r.topoState != topoValid || !union.respectsOrder(r.topo) {
				d = fmt.Sprintf("order state %d does not describe sb ∪ rf ∪ mo", r.topoState)
			}
		}
		mu.Lock()
		derived++
		if d != "" && mismatch == "" {
			mismatch = d + "\n" + r.G.Render()
		}
		mu.Unlock()
	}
	return func() (int, string) {
		mu.Lock()
		defer mu.Unlock()
		return derived, mismatch
	}
}
