package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// The refactor bar: the lock clients rebuilt over internal/workload
// must be indistinguishable from the pre-refactor builders at the
// program level — same reporting name, same candidate symmetry groups,
// and byte-identical Program.Fingerprint128, which is the program half
// of every verdict-store key. The old builders are inlined below
// verbatim (from the pre-workload client.go) as the oracle; any drift
// in the adapters shows up here before it can orphan the pooled
// verdict corpus.

// oldSymGroup is the pre-refactor harness helper, verbatim.
func oldSymGroup(alg *locks.Algorithm, lo, hi int) [][]int {
	if !alg.Symmetric || hi-lo < 2 {
		return nil
	}
	grp := make([]int, 0, hi-lo)
	for t := lo; t < hi; t++ {
		grp = append(grp, t)
	}
	return [][]int{grp}
}

// oldMutexClient is the pre-refactor MutexClient, verbatim.
func oldMutexClient(alg *locks.Algorithm, spec *vprog.BarrierSpec, nthreads, iters int) *vprog.Program {
	return &vprog.Program{
		Name:      fmt.Sprintf("client/mutex/%s/t%d-i%d", alg.Name, nthreads, iters),
		SymGroups: oldSymGroup(alg, 0, nthreads),
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			lk := alg.New(env, spec, nthreads)
			x := env.Var("cs.counter", 0)
			worker := func(m vprog.Mem) {
				for i := 0; i < iters; i++ {
					tok := lk.Acquire(m)
					v := m.Load(x, vprog.Rlx)
					m.Store(x, v+1, vprog.Rlx)
					lk.Release(m, tok)
				}
			}
			threads := make([]vprog.ThreadFunc, nthreads)
			for t := range threads {
				threads[t] = worker
			}
			want := uint64(nthreads * iters)
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if got := load(x); got != want {
					return false, fmt.Sprintf("lost update: counter = %d, want %d", got, want)
				}
				return true, ""
			}
			return threads, final
		},
	}
}

// oldRWClient is the pre-refactor RWClient, verbatim.
func oldRWClient(alg *locks.Algorithm, spec *vprog.BarrierSpec, writers, readers, iters int) *vprog.Program {
	nthreads := writers + readers
	return &vprog.Program{
		Name:      fmt.Sprintf("client/rw/%s/w%d-r%d-i%d", alg.Name, writers, readers, iters),
		SymGroups: append(oldSymGroup(alg, 0, writers), oldSymGroup(alg, writers, nthreads)...),
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			rw, ok := alg.New(env, spec, nthreads).(locks.RWLock)
			if !ok {
				panic("RWClient: algorithm " + alg.Name + " is not a reader-writer lock")
			}
			a := env.Var("rw.a", 0)
			b := env.Var("rw.b", 0)
			writer := func(m vprog.Mem) {
				for i := 0; i < iters; i++ {
					tok := rw.Acquire(m)
					va := m.Load(a, vprog.Rlx)
					m.Store(a, va+1, vprog.Rlx)
					vb := m.Load(b, vprog.Rlx)
					m.Store(b, vb+1, vprog.Rlx)
					rw.Release(m, tok)
				}
			}
			reader := func(m vprog.Mem) {
				for i := 0; i < iters; i++ {
					tok := rw.AcquireShared(m)
					va := m.Load(a, vprog.Rlx)
					vb := m.Load(b, vprog.Rlx)
					m.Assert(va == vb, fmt.Sprintf("torn read: a=%d b=%d", va, vb))
					rw.ReleaseShared(m, tok)
				}
			}
			var threads []vprog.ThreadFunc
			for i := 0; i < writers; i++ {
				threads = append(threads, writer)
			}
			for i := 0; i < readers; i++ {
				threads = append(threads, reader)
			}
			want := uint64(writers * iters)
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if load(a) != want || load(b) != want {
					return false, fmt.Sprintf("writer updates lost: a=%d b=%d want %d", load(a), load(b), want)
				}
				return true, ""
			}
			return threads, final
		},
	}
}

// oldRecursiveClient is the pre-refactor RecursiveClient, verbatim.
func oldRecursiveClient(alg *locks.Algorithm, spec *vprog.BarrierSpec, nthreads int) *vprog.Program {
	return &vprog.Program{
		Name:      fmt.Sprintf("client/recursive/%s/t%d", alg.Name, nthreads),
		SymGroups: oldSymGroup(alg, 0, nthreads),
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			lk := alg.New(env, spec, nthreads)
			x := env.Var("cs.counter", 0)
			worker := func(m vprog.Mem) {
				outer := lk.Acquire(m)
				inner := lk.Acquire(m)
				v := m.Load(x, vprog.Rlx)
				m.Store(x, v+1, vprog.Rlx)
				lk.Release(m, inner)
				v = m.Load(x, vprog.Rlx)
				m.Store(x, v+1, vprog.Rlx)
				lk.Release(m, outer)
			}
			threads := make([]vprog.ThreadFunc, nthreads)
			for t := range threads {
				threads[t] = worker
			}
			want := uint64(2 * nthreads)
			final := func(load func(*vprog.Var) uint64) (bool, string) {
				if got := load(x); got != want {
					return false, fmt.Sprintf("lost update: counter = %d, want %d", got, want)
				}
				return true, ""
			}
			return threads, final
		},
	}
}

// samePrograms demands bit-level identity of the store-relevant program
// facets: name, symmetry declaration and the 128-bit fingerprint.
func samePrograms(t *testing.T, oldP, newP *vprog.Program) {
	t.Helper()
	if oldP.Name != newP.Name {
		t.Errorf("name drifted: old %q, new %q", oldP.Name, newP.Name)
	}
	if !reflect.DeepEqual(oldP.SymGroups, newP.SymGroups) {
		t.Errorf("%s: symmetry groups drifted: old %v, new %v", oldP.Name, oldP.SymGroups, newP.SymGroups)
	}
	if of, nf := oldP.Fingerprint128(), newP.Fingerprint128(); of != nf {
		t.Errorf("%s: fingerprint drifted: old %v, new %v — every stored verdict for this client is orphaned",
			oldP.Name, of, nf)
	}
}

// TestWorkloadVeneerFingerprints: every lock in the registry, across
// the thread/iteration shapes the matrix and suite use, builds the
// identical program through the workload seam.
func TestWorkloadVeneerFingerprints(t *testing.T) {
	shapes := []struct{ nthreads, iters int }{{1, 1}, {2, 1}, {3, 1}, {2, 2}}
	for _, alg := range locks.All() {
		spec := alg.DefaultSpec()
		for _, s := range shapes {
			samePrograms(t,
				oldMutexClient(alg, spec, s.nthreads, s.iters),
				harness.MutexClient(alg, spec, s.nthreads, s.iters))
		}
	}
}

// TestWorkloadVeneerFingerprintsRW: the reader-writer shapes.
func TestWorkloadVeneerFingerprintsRW(t *testing.T) {
	alg := locks.ByName("rw")
	if alg == nil {
		t.Fatal("rw lock missing from the registry")
	}
	spec := alg.DefaultSpec()
	for _, s := range []struct{ w, r, iters int }{{1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {2, 1, 2}} {
		samePrograms(t,
			oldRWClient(alg, spec, s.w, s.r, s.iters),
			harness.RWClient(alg, spec, s.w, s.r, s.iters))
	}
}

// TestWorkloadVeneerFingerprintsRecursive: the re-entrant client.
func TestWorkloadVeneerFingerprintsRecursive(t *testing.T) {
	alg := locks.ByName("recspin")
	if alg == nil {
		t.Fatal("recspin lock missing from the registry")
	}
	spec := alg.DefaultSpec()
	for n := 1; n <= 3; n++ {
		samePrograms(t,
			oldRecursiveClient(alg, spec, n),
			workload.Program(workload.Recursive(alg), spec, n))
	}
}
