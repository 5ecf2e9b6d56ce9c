package mm_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/vprog"
)

// The SC axiom's row-vector kernel (mm.pscAcyclic) against the
// materializing reference it replaced (pscAcyclicRef in mm_test.go), on
// the graphs the explorer really asks WMM about and on random ones. The
// two share the relations of graph.Rels and the acyclicity engine, and
// nothing else.

// comparePsc asks both deciders about r and returns the reference's
// answer.
func comparePsc(t testing.TB, r *graph.Rels) bool {
	got, want := mm.PscAcyclic(r), pscAcyclicRef(r)
	if got != want {
		t.Errorf("psc kernel says acyclic=%v, the reference %v, on\n%s", got, want, r.G.Render())
	}
	return want
}

// scFences counts the SC fences of r.
func scFences(r *graph.Rels) int {
	n := 0
	for i := 0; i < r.N; i++ {
		if r.IsSCFence(i) {
			n++
		}
	}
	return n
}

// pscDiffModel is WMM, comparing the two psc deciders on every graph it
// is asked about on the way. With sample > 0 it also keeps the encoding
// of every sample-th graph.
type pscDiffModel struct {
	t                      testing.TB
	graphs, cyclic, fenced atomic.Int64 // fenced: graphs with two or more SC fences
	sample                 int64
	corpus                 [][]byte // single-worker runs only
}

func (m *pscDiffModel) Name() string { return mm.WMM.Name() }

func (m *pscDiffModel) Consistent(g *graph.Graph) bool {
	ok := mm.WMM.Consistent(g)
	r := graph.RelsOf(g)
	if !comparePsc(m.t, r) {
		m.cyclic.Add(1)
	}
	if scFences(r) >= 2 {
		m.fenced.Add(1)
	}
	if n := m.graphs.Add(1); m.sample > 0 && n%m.sample == 0 {
		m.corpus = append(m.corpus, graph.AppendGraph(nil, g))
	}
	return ok
}

// fencedIRIW and fenced2Plus2W are IRIW and 2+2W with relaxed accesses
// and an SC fence between each thread's two accesses: with SB+fences,
// the shapes whose forbidden outcome only psc_f rules out.
func fencedIRIW() *vprog.Program {
	return &vprog.Program{
		Name: "litmus/IRIW+fences",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x, y := env.Var("x", 0), env.Var("y", 0)
			writer := func(v *vprog.Var) vprog.ThreadFunc {
				return func(m vprog.Mem) { m.Store(v, 1, vprog.Rlx) }
			}
			reader := func(a, b *vprog.Var) vprog.ThreadFunc {
				return func(m vprog.Mem) {
					m.Load(a, vprog.Rlx)
					m.Fence(vprog.SC)
					m.Load(b, vprog.Rlx)
				}
			}
			return []vprog.ThreadFunc{writer(x), writer(y), reader(x, y), reader(y, x)}, nil
		},
	}
}

func fenced2Plus2W() *vprog.Program {
	return &vprog.Program{
		Name: "litmus/2+2W+fences",
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x, y := env.Var("x", 0), env.Var("y", 0)
			thread := func(a, b *vprog.Var) vprog.ThreadFunc {
				return func(m vprog.Mem) {
					m.Store(a, 1, vprog.Rlx)
					m.Fence(vprog.SC)
					m.Store(b, 2, vprog.Rlx)
				}
			}
			return []vprog.ThreadFunc{thread(x, y), thread(y, x)}, nil
		},
	}
}

// qspinSuite is the client set vsyncopt -lock qspin -threads 3 verifies
// a candidate against.
func qspinSuite(spec *vprog.BarrierSpec) []*vprog.Program {
	alg := locks.ByName("qspin")
	return []*vprog.Program{
		harness.MutexClient(alg, spec, 3, 1),
		harness.QspinQueuePathLitmus(spec),
		harness.MutexClient(alg, spec, 3, 1),
	}
}

// TestPscHarvested compares the deciders on every graph WMM is asked
// about while checking: each registered lock's two-thread client with
// every barrier SC (the optimizer's starting point, where psc has the
// most to say), the litmus table at both strengths and the SC-fenced
// shapes, the reader-writer lock's Dekker handshake, and the whole
// qspinlock descent of vsyncopt.
func TestPscHarvested(t *testing.T) {
	m := &pscDiffModel{t: t}
	var progs []*vprog.Program
	for _, alg := range locks.All() {
		progs = append(progs, harness.MutexClient(alg, alg.DefaultSpec().AllSC(), 2, 1))
	}
	for _, name := range harness.LitmusNames() {
		progs = append(progs, harness.Litmus(name, false), harness.Litmus(name, true))
	}
	rw := locks.ByName("rw")
	progs = append(progs, fencedIRIW(), fenced2Plus2W(),
		harness.RWClient(rw, rw.DefaultSpec(), 1, 1, 1),
		harness.RWClient(rw, rw.DefaultSpec().AllSC(), 1, 1, 1))
	for _, p := range progs {
		if res := core.New(m).Run(p); res.Verdict == core.Error {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
	}
	if m.fenced.Load() == 0 {
		t.Error("no harvested graph had two SC fences: psc_f was never exercised")
	}
	checked := m.graphs.Load()

	qspin := locks.ByName("qspin")
	opt := &optimize.Optimizer{Model: m, Programs: qspinSuite, Parallelism: 1}
	if _, err := opt.Run(qspin.DefaultSpec().AllSC()); err != nil {
		t.Fatal(err)
	}
	if m.cyclic.Load() == 0 {
		t.Error("psc rejected no harvested graph: the corpus cannot tell the deciders apart")
	}
	t.Logf("%d graphs from %d programs and %d from the qspin descent; %d with a psc cycle, %d with two or more SC fences",
		checked, len(progs), m.graphs.Load()-checked, m.cyclic.Load(), m.fenced.Load())
}

// randPscGraph grows a random graph of size events: threads are
// extended in random order; with probability chaos a read or update
// reads from a random earlier write to its location (so rf stays
// acyclic, which BuildRels's release-sequence walk needs) and a write
// lands at a random mo position, otherwise they take the mo-maximal
// write and the end of mo, as an interleaving would; modes are mixed
// with SC over-represented, and at most maxFences fences are SC.
// Nothing keeps the result coherent or atomic: the psc deciders must
// agree on any relations, not only on the ones the earlier axioms let
// through.
func randPscGraph(rng *rand.Rand, size, maxFences int, chaos float64) *graph.Graph {
	nThreads, nLocs := 2+rng.Intn(3), 1+rng.Intn(3)
	b := newGB(nThreads, nLocs)
	writes := make([][]graph.EventID, nLocs)
	for l := range writes {
		writes[l] = []graph.EventID{init0(graph.Loc(l))}
	}
	modes := []graph.Mode{graph.Rlx, graph.Acq, graph.Rel, graph.AcqRel, graph.SC, graph.SC}
	scBias := rng.Intn(3) // 0: SC as likely as any other mode … 2: mostly SC
	mode := func() graph.Mode {
		if rng.Intn(3) < scBias {
			return graph.SC
		}
		return modes[rng.Intn(len(modes))]
	}
	for k := 0; k < size; k++ {
		t, loc := rng.Intn(nThreads), graph.Loc(rng.Intn(nLocs))
		mo := b.g.Mo[loc]
		from, moPos := mo[len(mo)-1], len(mo)
		if rng.Float64() < chaos {
			from, moPos = writes[loc][rng.Intn(len(writes[loc]))], 1+rng.Intn(len(mo))
		}
		switch rng.Intn(7) {
		case 0, 1:
			b.read(t, loc, mode(), from)
		case 2, 3:
			writes[loc] = append(writes[loc], b.write(t, loc, graph.Val(k+1), mode(), moPos))
		case 4:
			writes[loc] = append(writes[loc], b.update(t, loc, graph.Val(k+1), mode(), from, moPos))
		default:
			m := modes[rng.Intn(4)] // a non-SC fence
			if maxFences > 0 && rng.Intn(2) == 0 {
				m = graph.SC
				maxFences--
			}
			b.fence(t, m)
		}
	}
	return b.g
}

// TestPscRandom compares the deciders on seeded random relations: small
// graphs, where one edge decides a cycle, by the thousand; some of
// several words per matrix row; and a few beyond the 576 events up to
// which the kernel's scratch lives on its stack.
func TestPscRandom(t *testing.T) {
	const small, wide, huge = 12000, 150, 3
	rng := rand.New(rand.NewSource(16))
	acyclic, cyclic, wideAcyclic, byFences := 0, 0, 0, [5]int{}
	check := func(size int, chaos float64) bool {
		r := graph.BuildRels(randPscGraph(rng, size, rng.Intn(5), chaos))
		byFences[min(scFences(r), 4)]++
		if comparePsc(t, r) {
			acyclic++
			return true
		}
		cyclic++
		return false
	}
	for i := 0; i < small; i++ {
		check(3+rng.Intn(16), 1/float64(1+rng.Intn(4)))
	}
	for i := 0; i < wide; i++ {
		if check(64+rng.Intn(130), 0.02) {
			wideAcyclic++
		}
	}
	for i := 0; i < huge; i++ {
		check(600, 0.002)
	}
	if acyclic == 0 || cyclic == 0 || wideAcyclic == 0 || wideAcyclic == wide {
		t.Errorf("the sweep is one-sided: %d acyclic, %d cyclic, %d of %d multi-word graphs acyclic", acyclic, cyclic, wideAcyclic, wide)
	}
	t.Logf("%d acyclic, %d cyclic (%d of %d multi-word graphs acyclic); graphs by SC fences 0..4: %v",
		acyclic, cyclic, wideAcyclic, wide, byFences)
}

// pscCorpus is every eighth graph WMM is asked about while checking the
// three-thread qspinlock client with every barrier SC — the states the
// optimizer's descent starts from — with their relations built.
func pscCorpus(tb testing.TB) []*graph.Rels {
	m := &pscDiffModel{t: tb, sample: 8}
	qspin := locks.ByName("qspin")
	if res := core.New(m).Run(harness.MutexClient(qspin, qspin.DefaultSpec().AllSC(), 3, 1)); !res.Ok() {
		tb.Fatalf("all-SC qspin t=3: %v", res)
	}
	rels := make([]*graph.Rels, len(m.corpus))
	for i, enc := range m.corpus {
		g, _, err := graph.DecodeGraph(enc)
		if err != nil {
			tb.Fatal(err)
		}
		rels[i] = graph.BuildRels(g)
	}
	return rels
}

// TestAllocsPsc: the SC axiom runs on every graph that survives
// coherence and must not reach the allocator — its vectors are on the
// stack and its one matrix is pooled. Measured on the largest all-SC
// qspin graph, as it is and with an SC fence appended to every thread
// (psc_f and the fence anchors).
func TestAllocsPsc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bars are not run in -short")
	}
	var big *graph.Rels
	for _, r := range pscCorpus(t) {
		if big == nil || r.N > big.N {
			big = r
		}
	}
	fenced := &gb{g: big.G.Clone()}
	for th := range fenced.g.Threads {
		fenced.fence(th, graph.SC)
	}
	for name, r := range map[string]*graph.Rels{"all-SC accesses": big, "with SC fences": graph.BuildRels(fenced.g)} {
		if allocs := testing.AllocsPerRun(100, func() { mm.PscAcyclic(r) }); allocs != 0 {
			t.Errorf("pscAcyclic, %s (%d events): %.0f allocations per call with a warm pool, want 0", name, r.N, allocs)
		}
	}
}

var pscSink bool

// BenchmarkPsc times one SC-axiom decision, kernel and reference, over
// pscCorpus.
func BenchmarkPsc(b *testing.B) {
	rels := pscCorpus(b)
	for name, fn := range map[string]func(*graph.Rels) bool{"kernel": mm.PscAcyclic, "ref": pscAcyclicRef} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				pscSink = fn(rels[i%len(rels)])
			}
		})
	}
}
