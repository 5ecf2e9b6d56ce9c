package graph

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
