package core

import (
	"repro/internal/graph"
)

// unresolvableBottom decides whether a stuck graph (no runnable
// threads, some blocked on ⊥ reads) witnesses an await-termination
// violation. A ⊥ read r is resolvable when some existing write w could
// serve it — i.e. setting rf(r) = w keeps the graph consistent — and
// doing so makes progress (the iteration would differ from the previous
// failed iteration, so the resolution is not wasteful).
//
// The graph is a genuine witness (a member of G∞*, §1.2) only when
// *every* blocked read is unresolvable: then no thread can ever run
// again, no new write can arrive, and the awaits spin forever. If some
// blocked read is resolvable, its resolution — where that thread makes
// progress and may produce the writes others wait for — is explored in
// a separate branch (the rf alternative pushed when the read was added,
// or a revisit), so this graph is discarded as redundant.
func (w *explorer) unresolvableBottom(g *graph.Graph, rres []replayResult) (graph.EventID, bool) {
	witness := graph.NoEvent
	for t, res := range rres {
		if !res.blocked {
			continue
		}
		evs := g.Threads[t]
		if len(evs) == 0 {
			return graph.NoEvent, false
		}
		e := evs[len(evs)-1]
		if !e.IsReadLike() || !g.RfOf(e.ID).Bottom {
			return graph.NoEvent, false // blocked threads always end in a ⊥ read
		}
		if w.resolvable(g, e, res.spans) {
			return graph.NoEvent, false
		}
		// Under symmetry, report the blocked read with the minimal
		// canonical slot (not the minimal thread id), so relabeled
		// orbit members yield the same canonical witness read.
		if witness == graph.NoEvent || (w.curPerm != nil && w.curPerm[e.ID.Thread] < w.curPerm[witness.Thread]) {
			witness = e.ID
		}
	}
	return witness, witness != graph.NoEvent
}

// resolvable reports whether some write in g can serve the ⊥ read e
// consistently and non-wastefully.
func (w *explorer) resolvable(g *graph.Graph, e *graph.Event, spans []iterRec) bool {
	// Locate e's position within its await iteration and the rf tuple of
	// the previous iteration, to apply the progress requirement: when e
	// is the *last* read of the iteration and every earlier read repeats
	// the previous iteration's sources, then e must read from a
	// different write than its counterpart did — resolving it equal
	// would complete an rf vector identical to a failed iteration's,
	// which is exactly W(G). At any earlier position the same source
	// stays admissible: a multi-operation iteration (an AwaitDo CAS
	// retry) can re-read an unchanged top/head and still diverge at a
	// later read — e.g. observe the tail its own help CAS advanced — so
	// forbidding the repeat there would turn terminating retries into
	// false await-termination verdicts. (The branch that takes the same
	// source and then completes an identical vector anyway is pruned by
	// wasteful() when it completes; this check only has to avoid
	// discarding the genuine witness, where the repeat is forced all
	// the way to the end.)
	var forbidden *graph.RF
	if e.AwaitIter > 0 {
		var cur, prev *iterRec
		for i := range spans {
			s := &spans[i]
			if s.Seq != e.AwaitSeq {
				continue
			}
			switch s.Iter {
			case e.AwaitIter:
				cur = s
			case e.AwaitIter - 1:
				prev = s
			}
		}
		if cur != nil && prev != nil {
			pos := -1
			for k, id := range cur.Reads {
				if id == e.ID {
					pos = k
					break
				}
			}
			if pos >= 0 && pos == len(prev.Reads)-1 {
				prefixSame := true
				for k := 0; k < pos; k++ {
					if g.RfOf(cur.Reads[k]) != g.RfOf(prev.Reads[k]) {
						prefixSame = false
						break
					}
				}
				if prefixSame {
					rf := g.RfOf(prev.Reads[pos])
					forbidden = &rf
				}
			}
		}
	}

	for _, wid := range g.Mo[e.Loc] {
		if wid == e.ID {
			continue
		}
		choice := graph.FromW(wid)
		if forbidden != nil && choice == *forbidden {
			continue // same source as the previous iteration: wasteful
		}
		g2 := resolveWith(g, e, wid)
		ok := w.c.Model.Consistent(g2)
		w.mem.Release(g2) // a probe nobody else ever saw
		if ok {
			return true
		}
	}
	return false
}

// resolveWith returns a copy of g in which the ⊥ read e instead reads
// from w. Updates are resolved as if degraded (their write part is not
// re-inserted into mo): this under-constrains the candidate graph, so
// the consistency test errs toward "resolvable" — never toward a false
// AT report. Executions where the update really does write are explored
// separately through the revisit branch created when w was added.
func resolveWith(g *graph.Graph, e *graph.Event, w graph.EventID) *graph.Graph {
	g2 := g.Clone()
	e2 := *e
	e2.RVal = g2.WriteVal(w)
	if e2.Kind == graph.KUpdate {
		e2.Degraded = true // read-only resolution; see doc comment
		e2.Val = 0
	}
	// ReplaceEvent, not an indexed store: clones share thread slices.
	g2.ReplaceEvent(e.ID, &e2)
	g2.SetRF(e.ID, graph.FromW(w))
	// The resolution is an incremental delta: same events, same mo, one
	// rf edge added to the trailing read of its thread. The hint lets
	// the consistency check below patch the parent's relations instead
	// of re-deriving them (with their two transitive closures) per
	// candidate write.
	g2.NoteResolved(g, &e2)
	return g2
}
