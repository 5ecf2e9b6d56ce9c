package harness

import (
	"fmt"

	"repro/internal/vprog"
)

// WRC is the write-to-read-causality litmus test:
//
//	T0: x = 1
//	T1: r0 = x; y =(w) 1        (publishes only after seeing x)
//	T2: r1 =(r) y; r2 = x
//
// The check fails iff T1 saw x=1, T2 saw y=1, yet T2 reads x=0 —
// forbidden when the chain is release/acquire (causality is
// transitive through hb), observable fully relaxed.
func WRC(w, r vprog.Mode) *vprog.Program {
	return &vprog.Program{
		Name: "litmus/WRC",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			y := env.Var("y", 0)
			seenX := env.Var("seenX", 7)
			seenY := env.Var("seenY", 7)
			xAtT2 := env.Var("xAtT2", 7)
			t0 := func(m vprog.Mem) { m.Store(x, 1, vprog.Rlx) }
			t1 := func(m vprog.Mem) {
				v := m.Load(x, r)
				m.Store(seenX, v, vprog.Rlx)
				m.Store(y, 1, w)
			}
			t2 := func(m vprog.Mem) {
				v := m.Load(y, r)
				m.Store(seenY, v, vprog.Rlx)
				m.Store(xAtT2, m.Load(x, vprog.Rlx), vprog.Rlx)
			}
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if load(seenX) == 1 && load(seenY) == 1 && load(xAtT2) == 0 {
					return false, "causality chain broken (WRC)"
				}
				return true, ""
			}
			return []vprog.ThreadFunc{t0, t1, t2}, final
		},
	}
}

// ISA2 is the three-thread transitive message-passing test:
//
//	T0: x = 1; y =(w) 1
//	T1: r0 =(r) y; z =(w) 1
//	T2: r1 =(r) z; r2 = x
//
// Fails iff T1 saw y, T2 saw z, yet T2 reads x=0.
func ISA2(w, r vprog.Mode) *vprog.Program {
	return &vprog.Program{
		Name: "litmus/ISA2",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			y := env.Var("y", 0)
			z := env.Var("z", 0)
			sy := env.Var("sy", 7)
			sz := env.Var("sz", 7)
			sx := env.Var("sx", 7)
			t0 := func(m vprog.Mem) {
				m.Store(x, 1, vprog.Rlx)
				m.Store(y, 1, w)
			}
			t1 := func(m vprog.Mem) {
				m.Store(sy, m.Load(y, r), vprog.Rlx)
				m.Store(z, 1, w)
			}
			t2 := func(m vprog.Mem) {
				m.Store(sz, m.Load(z, r), vprog.Rlx)
				m.Store(sx, m.Load(x, vprog.Rlx), vprog.Rlx)
			}
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if load(sy) == 1 && load(sz) == 1 && load(sx) == 0 {
					return false, "transitive message passing broken (ISA2)"
				}
				return true, ""
			}
			return []vprog.ThreadFunc{t0, t1, t2}, final
		},
	}
}

// TwoPlusTwoW is the 2+2W litmus test:
//
//	T0: x =(w) 1; y =(w) 2      T1: y =(w) 1; x =(w) 2
//
// Fails iff both locations end at value 1 (each thread's second store
// ordered mo-before the other's first). Forbidden under SC and TSO;
// RC11-style models allow it at any write strength below SC.
func TwoPlusTwoW(w vprog.Mode) *vprog.Program {
	return &vprog.Program{
		Name: "litmus/2+2W",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			y := env.Var("y", 0)
			t0 := func(m vprog.Mem) {
				m.Store(x, 1, w)
				m.Store(y, 2, w)
			}
			t1 := func(m vprog.Mem) {
				m.Store(y, 1, w)
				m.Store(x, 2, w)
			}
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if load(x) == 1 && load(y) == 1 {
					return false, "both final values are the first stores (2+2W)"
				}
				return true, ""
			}
			return []vprog.ThreadFunc{t0, t1}, final
		},
	}
}

// CoWR checks write-read coherence within one thread: a thread that
// just stored must not read an older value back. Forbidden everywhere.
func CoWR() *vprog.Program {
	return &vprog.Program{
		Name: "litmus/CoWR",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			t0 := func(m vprog.Mem) {
				m.Store(x, 1, vprog.Rlx)
				v := m.Load(x, vprog.Rlx)
				m.Assert(v != 0, fmt.Sprintf("read own overwritten value %d", v))
			}
			t1 := func(m vprog.Mem) { m.Store(x, 2, vprog.Rlx) }
			return []vprog.ThreadFunc{t0, t1}, nil
		},
	}
}

// Litmus names every built-in litmus program for the suite's litmus
// slice (vsync.VerifyMatrix, vsyncsuite), mapping a name to a builder
// at a given strength: "weak" (fully relaxed) or "strong"
// (release/acquire, SC where relevant). It returns nil for a name
// LitmusNames does not list.
func Litmus(name string, strong bool) *vprog.Program {
	w, r := vprog.Rlx, vprog.Rlx
	if strong {
		w, r = vprog.Rel, vprog.Acq
	}
	switch name {
	case "SB":
		if strong {
			return SB(vprog.SC, vprog.SC, vprog.ModeNone)
		}
		return SB(vprog.Rlx, vprog.Rlx, vprog.ModeNone)
	case "SB+fences":
		return SB(vprog.Rlx, vprog.Rlx, vprog.SC)
	case "MP":
		return MP(w, r)
	case "LB":
		return LB(r, w)
	case "CoRR":
		return CoRR()
	case "CoWR":
		return CoWR()
	case "IRIW":
		if strong {
			return IRIW(vprog.SC)
		}
		return IRIW(vprog.Acq)
	case "WRC":
		return WRC(w, r)
	case "ISA2":
		return ISA2(w, r)
	case "2+2W":
		return TwoPlusTwoW(w)
	case "FAA":
		return FAAAtomicity()
	}
	return nil
}

// LitmusNames lists the built-in litmus tests.
func LitmusNames() []string {
	return []string{"SB", "SB+fences", "MP", "LB", "CoRR", "CoWR", "IRIW", "WRC", "ISA2", "2+2W", "FAA"}
}
