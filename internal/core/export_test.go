package core

import (
	"fmt"
	"slices"
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
			rres := make([]*replayResult, len(w.threads))
			for t, fn := range w.threads {
				res := replayThread(g, t, fn, w.vars.Vars, new(replayMem))
				rres[t] = &res
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

// AuditReplayMemo arms (or, with on false, disarms) the audit of the
// replay memo: every hit is replayed afresh, in scratch of its own, and
// must equal the entry served field for field, spans and reads included.
// A key that misses a field replayThread reads, or an entry that shares
// memory a later replay overwrites, then shows as a mismatch. It returns
// what the armed period has seen so far: hits audited, and the first
// mismatch ("" if none). Toggle it only while no checker is running.
func AuditReplayMemo(on bool) (seen func() (hits int, failure string)) {
	if !on {
		auditMemo = nil
		return nil
	}
	var mu sync.Mutex
	var hits int
	var failure string
	auditMemo = func(w *explorer, g *graph.Graph, t int, e *replayResult) {
		fresh := replayThread(g, t, w.threads[t], w.vars.Vars, new(replayMem))
		bad := diffReplay(&fresh, e)
		mu.Lock()
		hits++
		if failure == "" && bad != "" {
			failure = fmt.Sprintf("thread T%d of\n%s\nserved from the memo: %s", t, g.Render(), bad)
		}
		mu.Unlock()
	}
	return func() (int, string) {
		mu.Lock()
		defer mu.Unlock()
		return hits, failure
	}
}

// AuditDedupKey arms (or, with on false, disarms) the audit of the
// visited set's key: for every raw structural key step computes — every
// pop of a run without symmetry in effect — the state's string
// fingerprint (Graph.Fingerprint, plus its forced revisit pair) is
// formed too, and within one run a key must map to one string and a
// string to one key. A hash that forgets a part of the graph shows as a
// key with two strings; one that folds in something outside it, as a
// string with two keys. It returns what the audit has seen: keys
// audited while armed, and the first key or string with two partners
// since it was last asked ("" if none), so a caller that asks after
// each run learns which run failed. Toggle it only while no checker is
// running, and run one checker at a time while it is armed.
func AuditDedupKey(on bool) (seen func() (keys int, failure string)) {
	if !on {
		auditKey = nil
		return nil
	}
	var mu sync.Mutex
	var keys int
	var failure string
	var run *exploration
	var byKey map[graph.Hash128]string
	var byString map[string]graph.Hash128
	auditKey = func(x *exploration, it ExploreState, k graph.Hash128) {
		str := it.g.Fingerprint()
		if it.hasForced {
			str += fmt.Sprintf("|F%v<-%v", it.forcedR, it.forcedW)
		}
		mu.Lock()
		defer mu.Unlock()
		if x != run {
			run, byKey, byString = x, map[graph.Hash128]string{}, map[string]graph.Hash128{}
		}
		keys++
		if failure != "" {
			return
		}
		if other, ok := byKey[k]; ok && other != str {
			failure = fmt.Sprintf("key %x stands for two strings in one run of %s:\n%s\n%s", k, x.prog.Name, other, str)
		} else if other, ok := byString[str]; ok && other != k {
			failure = fmt.Sprintf("string %s has two keys in one run of %s: %x and %x", str, x.prog.Name, other, k)
		}
		byKey[k], byString[str] = str, k
	}
	return func() (int, string) {
		mu.Lock()
		defer mu.Unlock()
		f := failure
		failure = ""
		return keys, f
	}
}

// diffReplay names the first field in which the memo entry e differs
// from the fresh replay want, or returns "".
func diffReplay(want, e *replayResult) string {
	switch {
	case want.err != nil || e.err != nil:
		return fmt.Sprintf("error %v, want %v", e.err, want.err)
	case want.pending != e.pending:
		return fmt.Sprintf("pending %+v, want %+v", e.pending, want.pending)
	case want.finished != e.finished || want.blocked != e.blocked:
		return fmt.Sprintf("finished/blocked %v/%v, want %v/%v", e.finished, e.blocked, want.finished, want.blocked)
	case len(want.spans) != len(e.spans):
		return fmt.Sprintf("%d await iterations, want %d", len(e.spans), len(want.spans))
	}
	for k, sp := range want.spans {
		got := e.spans[k]
		if !slices.Equal(sp.Reads, got.Reads) {
			return fmt.Sprintf("iteration %d reads %v, want %v", k, got.Reads, sp.Reads)
		}
		if sp.Seq != got.Seq || sp.Iter != got.Iter || sp.Failed != got.Failed || sp.Complete != got.Complete || sp.Wrote != got.Wrote {
			return fmt.Sprintf("iteration %d is %+v, want %+v", k, got, sp)
		}
	}
	return ""
}

// HaltVerdict halts an exploration with each result in turn, as racing
// workers would, and returns the verdict the run then reports.
func HaltVerdict(results ...*Result) Verdict {
	x := &exploration{}
	x.parkCond = sync.NewCond(&x.parkMu)
	for _, res := range results {
		x.halt(res)
	}
	return x.merge().Verdict
}
