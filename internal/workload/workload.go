// Package workload is the structure-agnostic client/spec seam between
// concurrent algorithms and the AMC checker: a Workload names one
// family of verification programs (a lock's generic client, a Treiber
// stack, a Michael–Scott queue, ...) and knows, for any thread count in
// its supported range, how to build the thread bodies plus the
// final-state spec that judges the recorded operation outcomes.
//
// The seam exists so that mutual exclusion stops being special-cased:
// internal/harness's lock clients are one Workload family (see Mutex,
// RW, Recursive — locks.Algorithm adapted onto this interface), and
// nonblocking structures (internal/structs) are another, yet both flow
// through the same program builder, the same candidate symmetry
// declaration, the same verdict-store keys and the same suite/bench
// plumbing. Adding a structure means implementing Workload and
// registering it; the verification matrix, vsynccheck -workload,
// vsyncsuite and the benchmark ladder pick it up from the registry.
//
// Programs built here must obey vprog's Bounded-Length and
// Bounded-Effect principles: in particular, the CAS retry loops of
// nonblocking structures (treiber, msqueue, and the seqlock's read
// side) are AwaitDo loops, never AwaitWhile — a failed CAS attempt
// re-stores link words the thread owns, which the effect-bounded retry
// contract of AwaitDo permits and a read-only AwaitWhile does not. The
// "/bounded" twins keep the older encoding, a pigeonhole-bounded plain
// loop, as the differential oracle for the await reduction.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/vprog"
)

// Ops is what a Workload builds for one program instance: the thread
// bodies and the final-state spec judging the outcomes the threads
// recorded into shared memory.
type Ops struct {
	Threads []vprog.ThreadFunc
	Final   vprog.FinalCheck
}

// Workload is one named family of verification programs over a thread
// count. Implementations must be immutable after construction: every
// method may be called concurrently, and New must be deterministic (the
// checker replays builds against execution graphs, and the program
// fingerprint witnesses one sequential execution).
type Workload interface {
	// Name is the registry identifier ("structs/treiber", "mutex/mcs").
	Name() string
	// Doc is the one-line description -list prints.
	Doc() string
	// Buggy marks a seeded-bug study variant: expected to fail
	// verification, excluded from the default suite corpus.
	Buggy() bool
	// Threads is the supported client thread range; hi == 0 means
	// unbounded above.
	Threads() (lo, hi int)
	// DefaultSpec returns the workload's default barrier assignment —
	// the per-structure fence placement its programs are verified
	// under. The spec's fingerprint is half of the verdict-store key.
	DefaultSpec() *vprog.BarrierSpec
	// SymGroups declares the candidate permutation-symmetric thread
	// groups at nthreads (interchangeable producers, consumers,
	// readers...). The declaration is only a candidate: vprog validates
	// it against the built program (Program.SymSpec) and drops groups
	// the structure disagrees with, so a wrong declaration degrades to
	// an unreduced run rather than an unsound one.
	SymGroups(nthreads int) [][]int
	// ProgramName is the reporting label of the built program at
	// nthreads (it is not part of the program fingerprint).
	ProgramName(nthreads int) string
	// New builds the thread bodies and final-state spec against env
	// under the given barrier assignment.
	New(env vprog.Env, spec *vprog.BarrierSpec, nthreads int) Ops
}

// Group declares threads lo..hi-1 as one candidate symmetric group,
// returning nil when the range has fewer than two members (a singleton
// group reduces nothing). This is the one shared declaration helper —
// the per-client copies internal/harness used to carry live here now.
func Group(lo, hi int) [][]int {
	if hi-lo < 2 {
		return nil
	}
	grp := make([]int, 0, hi-lo)
	for t := lo; t < hi; t++ {
		grp = append(grp, t)
	}
	return [][]int{grp}
}

// CheckThreads returns nil when w supports nthreads client threads, and
// otherwise an error naming w and its range the way -list prints it:
// "t=2..3", or "t>=1" when the range is open above. Callers that take
// the count from a user check it here; Program panics on it.
func CheckThreads(w Workload, nthreads int) error {
	lo, hi := w.Threads()
	if nthreads >= lo && (hi == 0 || nthreads <= hi) {
		return nil
	}
	rng := fmt.Sprintf("t=%d..%d", lo, hi)
	if hi == 0 {
		rng = fmt.Sprintf("t>=%d", lo)
	}
	return fmt.Errorf("%s does not support %d threads (range %s)", w.Name(), nthreads, rng)
}

// Program instantiates w at nthreads under spec (nil selects
// w.DefaultSpec) as a checkable vprog.Program. It panics when
// CheckThreads rejects nthreads — a programming error at the call
// site, not a run-time condition.
func Program(w Workload, spec *vprog.BarrierSpec, nthreads int) *vprog.Program {
	if err := CheckThreads(w, nthreads); err != nil {
		panic("workload: " + err.Error())
	}
	if spec == nil {
		spec = w.DefaultSpec()
	}
	return &vprog.Program{
		Name:      w.ProgramName(nthreads),
		SymGroups: w.SymGroups(nthreads),
		Build: func(env vprog.Env) ([]vprog.ThreadFunc, vprog.FinalCheck) {
			ops := w.New(env, spec, nthreads)
			return ops.Threads, ops.Final
		},
	}
}

// registry holds the named workloads. Registration happens in package
// init functions (internal/structs registers its structures); lookups
// after init need no locking, and tests that register extras are
// single-goroutine.
var registry = map[string]Workload{}

// Register adds w to the registry, panicking on an empty or duplicate
// name — both are programming errors worth failing loudly at init.
func Register(w Workload) {
	name := w.Name()
	if name == "" {
		panic("workload: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = w
}

// ByName returns the registered workload, or nil.
func ByName(name string) Workload { return registry[name] }

// All returns every registered workload sorted by name — the stable
// order -list and the suite corpus rely on.
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Verifiable returns every registered non-buggy workload sorted by
// name: the default structure corpus of the verification matrix.
func Verifiable() []Workload {
	var out []Workload
	for _, w := range All() {
		if !w.Buggy() {
			out = append(out, w)
		}
	}
	return out
}
