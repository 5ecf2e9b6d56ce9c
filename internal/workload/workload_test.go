package workload_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// fakeWorkload is a minimal two-variable workload for exercising the
// seam itself: builder dispatch, range enforcement, spec defaulting and
// the registry.
type fakeWorkload struct {
	name   string
	buggy  bool
	lo, hi int
}

func (w *fakeWorkload) Name() string        { return w.name }
func (w *fakeWorkload) Doc() string         { return "fake workload for seam tests" }
func (w *fakeWorkload) Buggy() bool         { return w.buggy }
func (w *fakeWorkload) Threads() (int, int) { return w.lo, w.hi }
func (w *fakeWorkload) DefaultSpec() *vprog.BarrierSpec {
	return vprog.NewSpec().Def("fake.store", vprog.Rel)
}
func (w *fakeWorkload) SymGroups(nthreads int) [][]int  { return workload.Group(0, nthreads) }
func (w *fakeWorkload) ProgramName(nthreads int) string { return w.name }

func (w *fakeWorkload) New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) workload.Ops {
	x := env.Var("fake.x", 0)
	worker := func(m vprog.Mem) { m.Store(x, 1, spec.M("fake.store")) }
	threads := make([]vprog.ThreadFunc, nthreads)
	for t := range threads {
		threads[t] = worker
	}
	return workload.Ops{Threads: threads, Final: func(load func(*vprog.Var) uint64) (bool, string) {
		return load(x) == 1, "lost store"
	}}
}

// TestGroup: the hoisted declaration helper — singletons and empty
// ranges declare nothing, real ranges declare the contiguous group.
func TestGroup(t *testing.T) {
	if g := workload.Group(0, 0); g != nil {
		t.Errorf("Group(0,0) = %v, want nil", g)
	}
	if g := workload.Group(3, 4); g != nil {
		t.Errorf("Group(3,4) = %v, want nil (singleton)", g)
	}
	if g := workload.Group(0, 3); !reflect.DeepEqual(g, [][]int{{0, 1, 2}}) {
		t.Errorf("Group(0,3) = %v, want [[0 1 2]]", g)
	}
	if g := workload.Group(2, 5); !reflect.DeepEqual(g, [][]int{{2, 3, 4}}) {
		t.Errorf("Group(2,5) = %v, want [[2 3 4]]", g)
	}
}

// TestProgramBuilder: the built program carries the workload's label
// and symmetry declaration, a nil spec selects DefaultSpec, and the
// program is actually buildable.
func TestProgramBuilder(t *testing.T) {
	w := &fakeWorkload{name: "test/fake-builder", lo: 1, hi: 4}
	p := workload.Program(w, nil, 3)
	if p.Name != "test/fake-builder" {
		t.Errorf("program name = %q", p.Name)
	}
	if !reflect.DeepEqual(p.SymGroups, [][]int{{0, 1, 2}}) {
		t.Errorf("program symmetry groups = %v", p.SymGroups)
	}
	// Fingerprinting forces a sequential build-and-run; a broken spec
	// default or thread wiring would panic here.
	if p.Fingerprint128() == (workload.Program(w, nil, 2).Fingerprint128()) {
		t.Error("programs at different thread counts share a fingerprint")
	}
}

// TestProgramRange: out-of-range thread counts are call-site bugs and
// must panic, including above a bounded range; hi == 0 is unbounded.
func TestProgramRange(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	bounded := &fakeWorkload{name: "test/fake-bounded", lo: 2, hi: 3}
	mustPanic("below range", func() { workload.Program(bounded, nil, 1) })
	mustPanic("above range", func() { workload.Program(bounded, nil, 4) })
	workload.Program(bounded, nil, 3) // in range: must not panic

	unbounded := &fakeWorkload{name: "test/fake-unbounded", lo: 1, hi: 0}
	workload.Program(unbounded, nil, 9) // hi == 0: any count above lo
	mustPanic("below unbounded lo", func() { workload.Program(unbounded, nil, 0) })
}

// TestCheckThreads: the one range rule, as the CLIs report it — nil
// inside the range, and outside it one line that names the workload,
// the count and the range as -list prints it.
func TestCheckThreads(t *testing.T) {
	bounded := &fakeWorkload{name: "test/fake-bounded", lo: 2, hi: 3}
	open := &fakeWorkload{name: "test/fake-open", lo: 1}
	for _, c := range []struct {
		w    workload.Workload
		n    int
		want string
	}{
		{bounded, 2, ""},
		{bounded, 3, ""},
		{bounded, 1, "test/fake-bounded does not support 1 threads (range t=2..3)"},
		{bounded, 4, "test/fake-bounded does not support 4 threads (range t=2..3)"},
		{open, 1, ""},
		{open, 1 << 20, ""},
		{open, 0, "test/fake-open does not support 0 threads (range t>=1)"},
		{open, -1, "test/fake-open does not support -1 threads (range t>=1)"},
		{workload.Mutex(locks.ByName("ttas"), 1), 0, "mutex/ttas does not support 0 threads (range t>=1)"},
	} {
		got := ""
		if err := workload.CheckThreads(c.w, c.n); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("CheckThreads(%s, %d) = %q, want %q", c.w.Name(), c.n, got, c.want)
		}
	}
}

// TestRegistry: registration, lookup, stable ordering, the Buggy
// filter, and the duplicate/empty-name panics.
func TestRegistry(t *testing.T) {
	a := &fakeWorkload{name: "test/zz-reg-b", lo: 1}
	b := &fakeWorkload{name: "test/zz-reg-a", lo: 1}
	bug := &fakeWorkload{name: "test/zz-reg-bug", lo: 1, buggy: true}
	workload.Register(a)
	workload.Register(b)
	workload.Register(bug)

	if workload.ByName("test/zz-reg-a") != b {
		t.Error("ByName missed a registered workload")
	}
	if workload.ByName("test/zz-reg-nope") != nil {
		t.Error("ByName invented a workload")
	}

	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name())
	}
	if !sort_ok(names) {
		t.Errorf("All() is not sorted: %v", names)
	}
	has := func(list []workload.Workload, name string) bool {
		for _, w := range list {
			if w.Name() == name {
				return true
			}
		}
		return false
	}
	if !has(workload.All(), "test/zz-reg-bug") {
		t.Error("All() dropped a buggy workload")
	}
	if has(workload.Verifiable(), "test/zz-reg-bug") {
		t.Error("Verifiable() kept a buggy workload")
	}
	if !has(workload.Verifiable(), "test/zz-reg-a") {
		t.Error("Verifiable() dropped a sound workload")
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("duplicate name", func() { workload.Register(&fakeWorkload{name: "test/zz-reg-a", lo: 1}) })
	mustPanic("empty name", func() { workload.Register(&fakeWorkload{lo: 1}) })
}

func sort_ok(names []string) bool {
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) > 0 {
			return false
		}
	}
	return true
}
