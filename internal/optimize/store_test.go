package optimize_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/vprog"
)

// namedProgram builds a program whose Name is fixed but whose shape
// (thread count and verdict) is not — the exact pair the name-keyed
// cache confused.
func namedProgram(name string, nthreads int, passes bool) *vprog.Program {
	return &vprog.Program{
		Name: name,
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			x := env.Var("x", 0)
			worker := func(m vprog.Mem) { m.FetchAdd(x, 1, vprog.SC) }
			threads := make([]vprog.ThreadFunc, nthreads)
			for t := range threads {
				threads[t] = worker
			}
			want := uint64(nthreads)
			if !passes {
				want++ // unsatisfiable: every execution fails the check
			}
			return threads, func(load func(*vprog.Var) uint64) (bool, string) {
				if got := load(x); got != want {
					return false, "count mismatch"
				}
				return true, ""
			}
		},
	}
}

// TestCacheSameNameDifferentShape is the keying-soundness regression:
// two clients sharing a program name but differing in shape must not
// reuse each other's verdicts through a shared cache. Under the old
// name-keyed cache the second optimizer's initial verification was
// served the first one's OK and the broken program "verified".
func TestCacheSameNameDifferentShape(t *testing.T) {
	cache := optimize.NewCache()
	spec := vprog.NewSpec().Def("pt", vprog.SC)

	good := &optimize.Optimizer{
		Model: mm.WMM, Parallelism: 1, Cache: cache,
		Programs: func(*vprog.BarrierSpec) []*vprog.Program {
			return []*vprog.Program{namedProgram("client/shared", 2, true)}
		},
	}
	if _, err := good.Run(spec.Clone()); err != nil {
		t.Fatalf("verifying program failed: %v", err)
	}

	bad := &optimize.Optimizer{
		Model: mm.WMM, Parallelism: 1, Cache: cache,
		Programs: func(*vprog.BarrierSpec) []*vprog.Program {
			// Same name, same model, same spec — different shape, and it
			// can never verify.
			return []*vprog.Program{namedProgram("client/shared", 3, false)}
		},
	}
	if _, err := bad.Run(spec.Clone()); err == nil {
		t.Fatal("unverifiable program passed: the cache served a same-named different-shape verdict")
	}
}

// TestCacheUndecidedAccounting: a candidate whose run its budget stopped
// is Undecided — rejected unverified, never accepted — and the cache
// keeps no verdict for it: a second descent sharing the session is
// served the initial spec alone, and re-runs AMC for every candidate.
// The budget lets the initial spec's one-event client verify and stops
// the real lock client every candidate spec gets.
func TestCacheUndecidedAccounting(t *testing.T) {
	cache := optimize.NewCache()
	alg := locks.ByName("ttas")
	initial := alg.DefaultSpec().AllSC()
	run := func() (*optimize.Result, int64) {
		t.Helper()
		m := &countingModel{}
		opt := &optimize.Optimizer{
			Model: m, Parallelism: 1, Cache: cache,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				if spec.Fingerprint128() == initial.Fingerprint128() {
					return []*vprog.Program{namedProgram("client/tiny", 1, true)}
				}
				return []*vprog.Program{harness.MutexClient(alg, spec, 2, 1)}
			},
		}
		optimize.SetBudget(opt, core.Budget{MaxGraphs: 5})
		res, err := opt.Run(initial.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) == 0 {
			t.Fatal("no candidate was tried")
		}
		for _, s := range res.Steps {
			if s.Accepted || s.Verdict != core.Undecided {
				t.Fatalf("%s=%s: accepted %v, verdict %v; want a budget-stopped rejection", s.Point, s.Tried, s.Accepted, s.Verdict)
			}
		}
		if res.Final.Fingerprint128() != initial.Fingerprint128() {
			t.Fatalf("undecided candidates relaxed the spec:\n%s", res.Changed())
		}
		want := fmt.Sprintf("undecided: %d candidates stopped at their budget and were rejected unverified", len(res.Steps))
		if !strings.Contains(res.Report(), want) {
			t.Errorf("report does not say %q:\n%s", want, res.Report())
		}
		return res, m.calls.Load()
	}
	first, _ := run()
	n := len(first.Steps)
	if first.CacheHits != 0 || first.CacheLookups != 1+n {
		t.Fatalf("first run: %d hits / %d lookups, want 0 / %d", first.CacheHits, first.CacheLookups, 1+n)
	}
	second, calls := run()
	if second.CacheHits != 1 || second.CacheLookups != 1+n {
		t.Errorf("second run: %d hits / %d lookups, want 1 (the initial spec) / %d", second.CacheHits, second.CacheLookups, 1+n)
	}
	if calls == 0 {
		t.Error("second run checked no graph: the undecided candidates were not run again")
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d verdicts, want 1: the initial spec's, no undecided one", cache.Len())
	}
}

// TestCachePersistentTier: a verdict store on disk as the cache makes
// a fresh process's re-run pure lookup — the across-restart version of
// TestCacheAvoidsReverification.
func TestCachePersistentTier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	alg := locks.ByName("ttas")
	run := func(st *store.Session) *optimize.Result {
		t.Helper()
		opt := &optimize.Optimizer{
			Model: mm.WMM, Parallelism: 1, Cache: st,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				return []*vprog.Program{harness.MutexClient(alg, spec, 2, 1)}
			},
		}
		res, err := opt.Run(alg.DefaultSpec().AllSC())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	st1, err := store.OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := run(st1)
	if st1.Stats().Appended == 0 {
		t.Fatal("first run appended nothing to the store")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "New process": a fresh store handle; everything must be served
	// from the log.
	st2, err := store.OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	opt := &optimize.Optimizer{
		Model: mm.WMM, Parallelism: 1, Cache: st2,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			return []*vprog.Program{harness.MutexClient(alg, spec, 2, 1)}
		},
	}
	second, err := opt.Run(alg.DefaultSpec().AllSC())
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.CacheLookups {
		t.Errorf("restarted run should be all hits: %d hits / %d lookups",
			second.CacheHits, second.CacheLookups)
	}
	if hits := st2.Stats().Hits; hits == 0 || hits != second.CacheHits {
		t.Errorf("the store served %d lookups, the run counted %d hits", hits, second.CacheHits)
	}
	if st2.Stats().Appended != 0 {
		t.Errorf("restarted run appended %d records; corpus unchanged, want 0", st2.Stats().Appended)
	}
	if second.Final.Fingerprint() != first.Final.Fingerprint() {
		t.Error("store-backed re-run diverged from the original optimization result")
	}
}

// TestCacheStoreErr: a failed write-through must not stay silent — a
// run believed to be warming the store may persist nothing, and the
// next run silently redoes all the AMC work. The first failure is
// recorded on the Result so callers (vsyncopt) can warn.
func TestCacheStoreErr(t *testing.T) {
	st, err := store.OpenShared(filepath.Join(t.TempDir(), "verdicts.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Close the store out from under the cache: every Put now fails the
	// way a full disk or revoked file would.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	opt := &optimize.Optimizer{
		Model: mm.WMM, Parallelism: 1, Cache: st,
		Programs: func(*vprog.BarrierSpec) []*vprog.Program {
			return []*vprog.Program{namedProgram("client/storeerr", 2, true)}
		},
	}
	res, err := opt.Run(vprog.NewSpec().Def("pt", vprog.SC))
	if err != nil {
		t.Fatalf("the search itself must survive a dead store: %v", err)
	}
	if res.StoreErr == nil {
		t.Fatal("write-through to a closed store failed silently: Result.StoreErr is nil")
	}
}
