package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
)

// candidateOf describes the event e, already appended to g, as the
// candidate the explorer would have asked Admit about. ok is false for
// the events the explorer never asks about: fences and ⊥ reads.
func candidateOf(g *graph.Graph, e *graph.Event) (c graph.Candidate, ok bool) {
	c = graph.Candidate{Thread: e.ID.Thread, Kind: e.Kind, Mode: e.Mode, Loc: e.Loc, Degraded: e.Degraded}
	switch e.Kind {
	case graph.KWrite:
		c.MoPos = g.MoIndex(e.Loc, e.ID)
		return c, true
	case graph.KRead, graph.KUpdate:
		rf := g.RfOf(e.ID)
		c.RF = rf.W
		return c, !rf.Bottom
	}
	return c, false
}

// coherent is the pair of checks raModel makes for irreflexive(hb;eco?).
func coherent(r *graph.Rels) bool {
	return r.Hb.Irreflexive() && !r.Eco.IntersectsTranspose(r.Hb)
}

// TestAdmitIsNecessary is the soundness bar of the birth filter on
// randomized exploration histories: whatever Admit rejects, every model
// rejects once the event is materialized — the filter tests only what
// SC, TSO, WMM and RA all imply. The other direction holds for the
// coherence half: over a coherent parent, an admitted event of any kind
// leaves the graph coherent, so on pure reads (which have no atomicity
// side) the filter is exact.
func TestAdmitIsNecessary(t *testing.T) {
	models := append(mm.All(), mm.Ablations()...)
	rng := rand.New(rand.NewSource(41))
	var rejected, rejectedLive, admittedReads int
	for trial := 0; trial < 600; trial++ {
		nThreads := 2 + rng.Intn(2)
		nLocs := 1 + rng.Intn(2)
		graph.RandExtendHistory(t, rng, nThreads, nLocs, 10, func(prev *graph.Rels, g *graph.Graph, e *graph.Event) {
			c, ok := candidateOf(g, e)
			if !ok {
				return
			}
			a := prev.Admit(c)
			if a != graph.Admissible {
				rejected++
				if mm.RA.Consistent(prev.G) {
					rejectedLive++
				}
				for _, m := range models {
					if m.Consistent(g) {
						t.Fatalf("trial %d: Admit says %d for %v, yet %s accepts\n%s", trial, a, e, m.Name(), g.Render())
					}
				}
				return
			}
			if !coherent(prev) {
				return
			}
			if !e.IsWriteLike() {
				admittedReads++
			}
			if !coherent(graph.BuildRels(g)) {
				t.Fatalf("trial %d: Admit admits %v over a coherent graph, yet the result is incoherent\n%s", trial, e, g.Render())
			}
		})
	}
	if rejectedLive < 100 || admittedReads < 100 {
		t.Fatalf("generator too thin: %d rejections (%d over RA-consistent parents), %d admitted reads over coherent parents",
			rejected, rejectedLive, admittedReads)
	}
	t.Logf("%d rejections (%d over RA-consistent parents), %d admitted reads over coherent parents", rejected, rejectedLive, admittedReads)
}

// ev appends an event to g the way the explorer does and returns its id.
// Write-likes take mo slot pos; read-likes read from.
func ev(g *graph.Graph, t int, k graph.Kind, m graph.Mode, loc graph.Loc, from graph.EventID, val graph.Val, pos int) graph.EventID {
	e := &graph.Event{ID: graph.EventID{Thread: t, Index: len(g.Threads[t])}, Kind: k, Mode: m, Loc: loc, Val: val, AwaitSeq: -1}
	if e.IsReadLike() {
		e.RVal = g.WriteVal(from)
	}
	g.Append(e)
	if e.IsReadLike() {
		g.SetRF(e.ID, graph.FromW(from))
	}
	if e.IsWriteLike() {
		g.InsertMo(loc, e.ID, pos)
	}
	return e.ID
}

// TestAdmitCases pins one hand-built graph per verdict and per edge
// rule the predicate reads.
func TestAdmitCases(t *testing.T) {
	const x, y = graph.Loc(0), graph.Loc(1)
	initOf := func(l graph.Loc) graph.EventID { return graph.EventID{Thread: graph.InitThread, Index: int(l)} }
	two := func() *graph.Graph { return graph.New(3, []graph.Val{0, 0}, []string{"x", "y"}) }

	// Message passing: T0 publishes x through a release store to y that
	// T1 has acquired; T1 must not read the overwritten init of x.
	mp := two()
	wx := ev(mp, 0, graph.KWrite, graph.Rlx, x, graph.NoEvent, 1, 1)
	wy := ev(mp, 0, graph.KWrite, graph.Rel, y, graph.NoEvent, 1, 1)
	ev(mp, 1, graph.KRead, graph.Acq, y, wy, 0, 0)

	// One CAS has already taken x from 0 to 1.
	cas := two()
	ev(cas, 0, graph.KUpdate, graph.AcqRel, x, initOf(x), 1, 1)

	// A release sequence whose update sits mo-BEFORE its own rf source:
	// no model admits this parent, but it passes both coherence checks,
	// and it is the one shape where the verdict rests on the sw in-edge
	// of the candidate itself (hb(b, e) by sw, eco(e, b) by fr).
	rs := two()
	b := ev(rs, 0, graph.KWrite, graph.Rel, y, graph.NoEvent, 1, 1)
	u := ev(rs, 1, graph.KUpdate, graph.Rlx, y, b, 2, 1)

	cases := []struct {
		name string
		g    *graph.Graph
		c    graph.Candidate
		want graph.Admission
	}{
		{"mp/stale-read", mp, graph.Candidate{Thread: 1, Kind: graph.KRead, Loc: x, RF: initOf(x)}, graph.Incoherent},
		{"mp/fresh-read", mp, graph.Candidate{Thread: 1, Kind: graph.KRead, Loc: x, RF: wx}, graph.Admissible},
		{"mp/stale-read-other-thread", mp, graph.Candidate{Thread: 2, Kind: graph.KRead, Loc: x, RF: initOf(x)}, graph.Admissible},
		{"mp/write-before-own-write", mp, graph.Candidate{Thread: 0, Kind: graph.KWrite, Loc: x, MoPos: 1}, graph.Incoherent},
		{"mp/write-after-own-write", mp, graph.Candidate{Thread: 0, Kind: graph.KWrite, Loc: x, MoPos: 2}, graph.Admissible},
		{"cas/second-cas-same-source", cas, graph.Candidate{Thread: 1, Kind: graph.KUpdate, Mode: graph.AcqRel, Loc: x, RF: initOf(x)}, graph.SplitsUpdate},
		{"cas/failed-cas-same-source", cas, graph.Candidate{Thread: 1, Kind: graph.KUpdate, Mode: graph.AcqRel, Loc: x, RF: initOf(x), Degraded: true}, graph.Admissible},
		{"cas/write-between", cas, graph.Candidate{Thread: 1, Kind: graph.KWrite, Loc: x, MoPos: 1}, graph.SplitsUpdate},
		{"cas/write-between-by-the-cas-thread", cas, graph.Candidate{Thread: 0, Kind: graph.KWrite, Loc: x, MoPos: 1}, graph.Incoherent},
		{"rs/acquire-through-release-sequence", rs, graph.Candidate{Thread: 2, Kind: graph.KRead, Mode: graph.Acq, Loc: y, RF: u}, graph.Incoherent},
		{"rs/relaxed-read", rs, graph.Candidate{Thread: 2, Kind: graph.KRead, Mode: graph.Rlx, Loc: y, RF: u}, graph.Admissible},
	}
	for _, tc := range cases {
		if got := graph.RelsOf(tc.g).Admit(tc.c); got != tc.want {
			t.Errorf("%s: Admit = %d, want %d", tc.name, got, tc.want)
		}
	}
}
