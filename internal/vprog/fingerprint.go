package vprog

import "repro/internal/graph"

// awaitFingerprintCap bounds the cond evaluations one AwaitWhile may
// contribute to a fingerprint trace. Under the sequential schedule used
// below a well-formed awaiting program either terminates (a thread runs
// to completion before the next starts, so the awaited condition has
// been established by an earlier thread) or spins forever on a
// condition only a *later* thread establishes. The cap turns the second
// case into a recorded "await saturated" marker instead of a hang; by
// the Bounded-Effect principle the abandoned iterations had no
// value-changing writes, so cutting the loop cannot desynchronize the
// trace.
const awaitFingerprintCap = 1 << 12

// Operation tags folded into the fingerprint trace. Distinct from any
// Mode or Kind value by construction (each op word carries its tag in
// the high byte).
const (
	fpLoad = iota + 1
	fpStore
	fpXchg
	fpCmpXchg
	fpFetchAdd
	fpFence
	fpAwaitEnter
	fpAwaitExit
	fpAwaitSaturated
	fpPause
	fpAssert
	fpThread
	fpVars
	fpFinalCheck
	fpTID     // canonical (symmetry-folded) traces only — see sym.go
	fpAwaitDo // AwaitDo enter marker (exit/saturation reuse the AwaitWhile tags)
)

// Fingerprint128 returns a 128-bit structural hash of the program: its
// shared variables (names and initial values), thread count, the full
// operation trace of one deterministic sequential execution (threads
// run to completion in index order against an in-order memory; every
// operation contributes opcode, location, barrier mode and data
// values), and the final-state check's outcome on that execution.
//
// The fingerprint captures exactly the inputs a program generator feeds
// into its shape — algorithm, barrier spec, thread count, iteration
// count — because each shows up in the trace: more threads add thread
// sections, more iterations add operations, a different spec changes
// the recorded modes, a different algorithm changes the opcode
// sequence. Two programs with equal fingerprints are treated as the
// same verification problem by the verdict caches (internal/optimize,
// internal/store); the program Name is deliberately NOT part of the
// hash — names are labels for reporting, and keying verdicts on them
// let two same-named programs of different shapes silently reuse each
// other's results.
//
// Caveat: the trace witnesses one execution path, so programs that
// differ only in code unreachable under the sequential schedule — e.g.
// a different CAS-failure arm that the uncontended run never takes —
// hash equal. Within one build that is sound for generated clients
// (harness.MutexClient and friends): their generators vary only
// trace-visible inputs. Across builds it is not — editing a lock's
// contended-path source leaves the fingerprint unchanged — which is
// why the persistent verdict store additionally stamps a code-identity
// epoch (a hash of the verdict- and key-determining sources, listed in
// the root package's epoch.go) on every record and serves only same-epoch records; the
// fingerprint alone is never trusted across builds.
//
// Programs with validated symmetric thread groups (SymSpec != nil)
// hash the same trace under the canonical fold (see canonMem in
// sym.go): locations and values fold in a thread-relabeling-invariant
// encoding, so builds of one symmetric program that differ only by a
// permutation of the interchangeable threads produce identical
// fingerprints and share one verdict-store cell.
func (p *Program) Fingerprint128() graph.Hash128 {
	spec := p.SymSpec()
	vs := &VarSet{}
	threads, final := p.Build(vs)
	if spec == nil {
		return canonTrace(vs, nil, nil, threads, final, nil)
	}
	// Validation has already proved every candidate permutation folds
	// the identity permutation's value, so two builds of one program that
	// differ only by a relabeling of symmetric threads (swapped
	// per-thread closures with correspondingly swapped tags and initial
	// values) hash equal.
	tb := buildSymTables(vs, len(threads))
	id := make([]int32, len(threads))
	for t := range id {
		id[t] = int32(t)
	}
	return canonTrace(vs, &tb, spec, threads, final, id)
}
