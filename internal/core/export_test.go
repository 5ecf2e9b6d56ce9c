package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// AuditBirthRule arms (or, with on false, disarms) the audit of the
// birth rule in pushWrite: every child the rule rejects is replayed in
// full and must come out collapsedRetry, as its pop would have found it,
// and the revisits its write would have seeded are built after all — the
// ones a split-update rejection would have filtered included — and must
// each come out the same, which is the claim that lets the rule skip
// them. The revisits are thrown away again and
// the worker's counters restored, so an audited run explores what an
// unaudited one does. It returns what the armed period has seen so far:
// rejected seeds, revisits replayed, and the first revisit that did not
// collapse ("" if none). Toggle it only while no checker is running.
func AuditBirthRule(on bool) (seen func() (seeds, revisits int, failure string)) {
	if !on {
		auditBirth = nil
		return nil
	}
	var mu sync.Mutex
	var seeds, revisits int
	var failure string
	auditBirth = func(w *explorer, g, g2 *graph.Graph, wv *graph.Event) {
		collapses := func(g *graph.Graph) bool {
			rres := make([]replayResult, len(w.threads))
			for t, fn := range w.threads {
				rres[t] = replayThread(g, t, fn, w.vars.Vars, new(replayMem))
			}
			return collapsedRetry(rres)
		}
		bad := ""
		if !collapses(g2) {
			bad = fmt.Sprintf("the child that adds %v was rejected at birth, yet its pop would not collapse it:\n%s", wv, g2.Render())
		}
		mark, stats, oversize := len(w.childBuf), w.stats, w.oversize
		w.pushRevisits(g, g2, wv, false)
		built := w.childBuf[mark:]
		for _, st := range built {
			if !collapses(st.g) && bad == "" {
				bad = fmt.Sprintf("the revisit of %v by %v survives the collapse its seed was rejected for:\n%s", st.forcedR, wv, st.g.Render())
			}
			w.mem.Release(st.g)
		}
		clear(built)
		w.childBuf, w.stats, w.oversize = w.childBuf[:mark], stats, oversize
		mu.Lock()
		seeds++
		revisits += len(built)
		if failure == "" {
			failure = bad
		}
		mu.Unlock()
	}
	return func() (int, int, string) {
		mu.Lock()
		defer mu.Unlock()
		return seeds, revisits, failure
	}
}

// PoisonSnapOnRelease makes every retired snapshot block unreadable
// before it is parked, over the whole capacity of its arrays: each result
// an error (a step that reads one ends the run with it), each span one
// that collapses its state (a count changes), each read an id no graph
// holds (an rf lookup panics). A state that reads replay results through
// a reference it no longer has, or through a block that points into
// another, then fails loudly instead of replaying plausibly. Toggle it
// only while no checker is running.
func PoisonSnapOnRelease(on bool) {
	if !on {
		poisonSnap = nil
		return
	}
	stale := errors.New("core: replay results read out of a retired snapshot block")
	poisonSnap = func(b *snapBlock) {
		res, spans, reads := b.res[:cap(b.res)], b.spans[:cap(b.spans)], b.reads[:cap(b.reads)]
		for i := range reads {
			reads[i] = graph.EventID{Thread: -7, Index: -7}
		}
		for i := range spans {
			spans[i] = iterRec{Seq: -1, Iter: 1, Complete: true, Reads: reads}
		}
		for i := range res {
			res[i] = replayResult{err: stale, spans: spans}
		}
	}
}
