package locks

import "repro/internal/vprog"

// modeSource abstracts barrier-mode lookup so composite locks (HCLH,
// cohort) can remap a sub-lock's generic point names onto per-instance
// points of the shared spec.
type modeSource interface {
	M(name string) vprog.Mode
}

// prefixedSpec adapts a shared spec so that a sub-lock's generic point
// names ("clh.await") resolve under an instance prefix
// ("hclh.l0.await").
type prefixedSpec struct {
	spec   *vprog.BarrierSpec
	prefix string
}

func (p *prefixedSpec) M(name string) vprog.Mode {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return p.spec.M(p.prefix + name[i:])
		}
	}
	return p.spec.M(p.prefix + "." + name)
}

// ---------------------------------------------------------------------
// array: Anderson's array-based queue lock.
// ---------------------------------------------------------------------

type arrayLock struct {
	spec  *vprog.BarrierSpec
	tail  *vprog.Var
	slots []*vprog.Var
	n     int
}

// ArrayQ is the array-based queue lock: each contender draws a slot
// index and spins on its own slot; the releaser grants the next slot.
//
// The textbook boolean-flag formulation is broken on weak memory: after
// a wrap-around a waiter may read its *own stale* release flag from the
// previous generation (coherence allows reading one's own old write)
// and enter the critical section early — our AMC found exactly this
// lost-update execution. The weak-memory-correct formulation used here
// stores a monotone turn counter per slot: the waiter holding ticket t
// awaits slots[t%n] >= t+1, and the releaser grants t+2 into slot
// (t+1)%n. Values per slot only grow, so stale reads just keep the
// waiter waiting.
var ArrayQ = register(&Algorithm{
	Name: "array",
	Doc:  "Anderson array-based queue lock with turn counters",
	Kind: KindMutex,
	// Slots are indexed by ticket, not thread id — no tags needed.
	Symmetric: true,
	DefaultSpec: func() *vprog.BarrierSpec {
		return vprog.NewSpec().
			Def("array.faa", vprog.Rlx).
			Def("array.await", vprog.Acq).
			Def("array.pass", vprog.Rel)
	},
	New: func(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Lock {
		slots := varArray(env, "array.slot", nthreads, 0)
		l := &arrayLock{spec: spec, tail: env.Var("array.tail", 0), slots: slots, n: nthreads}
		// Ticket 0 is granted from the start: slot 0 holds 0+1.
		slots[0].Init = 1
		slots[0].Cell = 1
		return l
	},
})

func (l *arrayLock) Acquire(m vprog.Mem) uint64 {
	t := m.FetchAdd(l.tail, 1, l.spec.M("array.faa"))
	slot := l.slots[t%uint64(l.n)]
	m.AwaitWhile(func() bool {
		wait := m.Load(slot, l.spec.M("array.await")) < t+1
		if wait {
			m.Pause()
		}
		return wait
	})
	return t
}

func (l *arrayLock) Release(m vprog.Mem, token uint64) {
	m.Store(l.slots[(token+1)%uint64(l.n)], token+2, l.spec.M("array.pass"))
}

func (l *arrayLock) Contended(m vprog.Mem, token uint64) bool {
	return m.Load(l.tail, vprog.Rlx) > token+1
}

// ---------------------------------------------------------------------
// clh: the Craig–Landin–Hagersten queue lock.
// ---------------------------------------------------------------------

// clhLock uses nthreads+1 nodes: each thread starts owning node tid and
// adopts its predecessor's node on release (the classic recycling
// scheme); node nthreads is the initially-free node installed as tail.
// Tokens pack (own node | predecessor node << 8); node indices are
// < 256 (the simulator tops out at 128 threads).
type clhLock struct {
	spec   modeSource
	tail   *vprog.Var   // node index currently at the tail
	locked []*vprog.Var // locked[node]
	mine   []*vprog.Var // mine[t]: node currently owned by thread t
}

func newCLHState(env vprog.Env, spec modeSource, nthreads int, prefix string) *clhLock {
	l := &clhLock{
		spec:   spec,
		tail:   env.Var(prefix+".tail", uint64(nthreads)),
		locked: varArray(env, prefix+".locked", nthreads+1, 0),
		mine:   varArray(env, prefix+".mine", nthreads, 0),
	}
	for t := 0; t < nthreads; t++ {
		l.mine[t].Init = uint64(t)
		l.mine[t].Cell = uint64(t)
	}
	return l
}

// CLH is the CLH queue lock.
var CLH = register(&Algorithm{
	Name:      "clh",
	Doc:       "CLH queue lock (Craig; Landin & Hagersten)",
	Kind:      KindMutex,
	Symmetric: true,
	DefaultSpec: func() *vprog.BarrierSpec {
		return clhPoints(vprog.NewSpec(), "clh")
	},
	New: func(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Lock {
		l := newCLHState(env, spec, nthreads, "clh")
		// Symmetry tags for the standalone instance (hclh reuses
		// newCLHState untagged — its cluster mapping is asymmetric).
		// Node indices start out equal to thread ids, and although the
		// recycling scheme migrates node ownership, node indices only
		// travel as *data* (tail, mine, tokens) — which the TagTid
		// metadata relabels — while locked[n] for n < nthreads is
		// initially thread n's replica. Node nthreads (the initially
		// free one) is never a thread id and stays untagged.
		l.tail.TagTid(0, 0)
		for t := 0; t < nthreads; t++ {
			l.mine[t].TagOwner(t, "clh.mine").TagTid(0, 0)
			l.locked[t].TagOwner(t, "clh.locked")
		}
		return l
	},
})

// clhPoints registers the CLH barrier points under the given prefix.
func clhPoints(s *vprog.BarrierSpec, prefix string) *vprog.BarrierSpec {
	return s.
		Def(prefix+".init", vprog.Rlx).
		Def(prefix+".xchg_tail", vprog.AcqRel).
		Def(prefix+".await", vprog.Acq).
		Def(prefix+".unlock", vprog.Rel).
		Def(prefix+".adopt", vprog.Rlx)
}

func (l *clhLock) Acquire(m vprog.Mem) uint64 {
	t := m.TID()
	// mine[t] is only ever accessed by thread t; relaxed is safe.
	n := m.Load(l.mine[t], l.spec.M("clh.adopt"))
	m.Store(l.locked[n], 1, l.spec.M("clh.init"))
	prev := m.Xchg(l.tail, n, l.spec.M("clh.xchg_tail"))
	m.AwaitWhile(func() bool {
		wait := m.Load(l.locked[prev], l.spec.M("clh.await")) == 1
		if wait {
			m.Pause()
		}
		return wait
	})
	return n | prev<<8
}

func (l *clhLock) Release(m vprog.Mem, token uint64) {
	t := m.TID()
	n, prev := token&0xff, (token>>8)&0xff
	m.Store(l.locked[n], 0, l.spec.M("clh.unlock"))
	// Adopt the predecessor's (now retired) node for our next round.
	m.Store(l.mine[t], prev, l.spec.M("clh.adopt"))
}

func (l *clhLock) Contended(m vprog.Mem, token uint64) bool {
	return m.Load(l.tail, vprog.Rlx) != token&0xff
}

// ---------------------------------------------------------------------
// hclh: hierarchical CLH.
// ---------------------------------------------------------------------

// hclhLock models the hierarchical CLH lock (Luchangco, Nussbaum &
// Shavit) as a two-level composition: a per-cluster CLH queue feeding a
// global CLH queue. This preserves the NUMA-locality trait measured in
// the evaluation (cluster peers queue locally and only cluster leaders
// contend globally); the original's queue-splicing optimization is not
// reproduced.
type hclhLock struct {
	global *clhLock
	local  []*clhLock
	nth    int
}

const hclhClusters = 2

// HCLH is the hierarchical CLH lock.
var HCLH = register(&Algorithm{
	Name: "hclh",
	Doc:  "hierarchical CLH lock (two-level CLH composition)",
	Kind: KindMutex,
	DefaultSpec: func() *vprog.BarrierSpec {
		s := vprog.NewSpec()
		for _, lvl := range []string{"hclh.g", "hclh.l0", "hclh.l1"} {
			clhPoints(s, lvl)
		}
		return s
	},
	New: func(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Lock {
		l := &hclhLock{nth: nthreads}
		l.global = newCLHState(env, &prefixedSpec{spec: spec, prefix: "hclh.g"}, nthreads, "hclh.g")
		for c := 0; c < hclhClusters; c++ {
			prefix := []string{"hclh.l0", "hclh.l1"}[c]
			l.local = append(l.local, newCLHState(env, &prefixedSpec{spec: spec, prefix: prefix}, nthreads, prefix))
		}
		return l
	},
})

func (l *hclhLock) cluster(tid int) int { return clusterOf(tid, l.nth, hclhClusters) }

func (l *hclhLock) Acquire(m vprog.Mem) uint64 {
	c := l.cluster(m.TID())
	lt := l.local[c].Acquire(m)
	gt := l.global.Acquire(m)
	return lt | gt<<16 // each CLH token uses 16 bits
}

func (l *hclhLock) Release(m vprog.Mem, token uint64) {
	c := l.cluster(m.TID())
	l.global.Release(m, (token>>16)&0xffff)
	l.local[c].Release(m, token&0xffff)
}
