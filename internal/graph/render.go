package graph

import (
	"fmt"
	"strings"
)

// locName returns the display name of a location.
func (g *Graph) locName(l Loc) string {
	if int(l) < len(g.LocNames) && g.LocNames[l] != "" {
		return g.LocNames[l]
	}
	return fmt.Sprintf("loc%d", l)
}

// eventText renders one event in the paper's notation with location names.
func (g *Graph) eventText(e *Event) string {
	switch e.Kind {
	case KFence:
		return fmt.Sprintf("F^%s", e.Mode)
	case KError:
		return fmt.Sprintf("ERROR(%s)", e.Msg)
	case KRead:
		return fmt.Sprintf("R^%s(%s,%d)", e.Mode, g.locName(e.Loc), e.RVal)
	case KWrite:
		return fmt.Sprintf("W^%s(%s,%d)", e.Mode, g.locName(e.Loc), e.Val)
	case KUpdate:
		if e.Degraded {
			return fmt.Sprintf("U^%s(%s,r%d)", e.Mode, g.locName(e.Loc), e.RVal)
		}
		return fmt.Sprintf("U^%s(%s,%d->%d)", e.Mode, g.locName(e.Loc), e.RVal, e.Val)
	}
	return "?"
}

// Render returns a human-readable multi-line description of the graph:
// per-thread event listings annotated with rf sources, followed by the
// per-location modification orders. This is the textual counterpart of
// the paper's execution-graph figures (Figs. 2, 5, 14–17, 19).
func (g *Graph) Render() string {
	var b strings.Builder
	for l, v := range g.InitVals {
		fmt.Fprintf(&b, "init %s = %d\n", g.locName(Loc(l)), v)
	}
	for t, evs := range g.Threads {
		fmt.Fprintf(&b, "thread T%d:\n", t)
		for _, e := range evs {
			fmt.Fprintf(&b, "  [%2d] %-28s", e.ID.Index, g.eventText(e))
			if e.IsReadLike() {
				rf := g.rfAt(t, e.ID.Index)
				if rf.Bottom {
					b.WriteString("  rf: ⊥ (missing)")
				} else {
					fmt.Fprintf(&b, "  rf: %s", rf.W)
				}
			}
			if e.InAwait() {
				fmt.Fprintf(&b, "  [await#%d iter%d]", e.AwaitSeq, e.AwaitIter)
			}
			if e.Point != "" {
				fmt.Fprintf(&b, "  @%s", e.Point)
			}
			b.WriteByte('\n')
		}
	}
	for l, order := range g.Mo {
		if len(order) <= 1 {
			continue
		}
		fmt.Fprintf(&b, "mo(%s):", g.locName(Loc(l)))
		for _, w := range order {
			fmt.Fprintf(&b, " %s", w)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT returns a Graphviz rendering of the graph with po, rf and mo
// edges, suitable for visual inspection of counterexamples.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n", title)
	name := func(id EventID) string {
		if id.IsInit() {
			return fmt.Sprintf("init_%d", id.Index)
		}
		return fmt.Sprintf("t%d_%d", id.Thread, id.Index)
	}
	for l, v := range g.InitVals {
		fmt.Fprintf(&b, "  init_%d [label=\"Winit(%s,%d)\", style=dotted];\n", l, g.locName(Loc(l)), v)
	}
	for t, evs := range g.Threads {
		fmt.Fprintf(&b, "  subgraph cluster_t%d { label=\"T%d\";\n", t, t)
		for _, e := range evs {
			fmt.Fprintf(&b, "    %s [label=%q];\n", name(e.ID), g.eventText(e))
		}
		fmt.Fprintf(&b, "  }\n")
		for i := 1; i < len(evs); i++ {
			fmt.Fprintf(&b, "  %s -> %s [label=\"po\", color=gray];\n", name(evs[i-1].ID), name(evs[i].ID))
		}
	}
	for t, evs := range g.Threads {
		for i, e := range evs {
			if !e.IsReadLike() {
				continue
			}
			rd := e.ID
			rf := g.rfAt(t, i)
			if rf.Bottom {
				fmt.Fprintf(&b, "  bottom_%s [label=\"⊥\", shape=plaintext];\n  bottom_%s -> %s [label=\"rf\", color=red, style=dashed];\n",
					name(rd), name(rd), name(rd))
				continue
			}
			fmt.Fprintf(&b, "  %s -> %s [label=\"rf\", color=forestgreen];\n", name(rf.W), name(rd))
		}
	}
	for _, order := range g.Mo {
		for i := 1; i < len(order); i++ {
			fmt.Fprintf(&b, "  %s -> %s [label=\"mo\", color=blue, style=dotted];\n", name(order[i-1]), name(order[i]))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
