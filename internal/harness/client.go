package harness

import (
	"repro/internal/locks"
	"repro/internal/vprog"
	"repro/internal/workload"
)

// MutexClient and RWClient name the two lock clients that callers build
// by shape (threads, iterations, readers and writers); the thread
// bodies, specs and candidate symmetry declarations live in the
// structure-agnostic workload layer (internal/workload), where
// locks.Algorithm is one Workload family next to the nonblocking
// structures of internal/structs. Other lock clients — the recursive
// one, for instance — are built there directly:
// workload.Program(workload.Recursive(alg), spec, n). The programs keep
// the historical shapes bit-for-bit — same variable names and
// allocation order, same operation sequences, same final-check
// messages, same symmetry groups — so every Program.Fingerprint128
// (and with it every verdict-store key) is byte-identical to the
// pre-workload builders. The differential test in this package pins
// that equivalence against inline copies of the old closures.

// MutexClient is the paper's generic client code (§1.2): nthreads
// threads each perform iters critical sections that increment a shared
// counter with plain (relaxed) accesses; the final-state check demands
// no update was lost. Because the increment is not atomic, both mutual
// exclusion *and* the ordering of the lock hand-off are verified — this
// is the client that exposes the Huawei §3.2 bug. Await termination of
// every loop in the lock is checked as a matter of course by AMC.
func MutexClient(alg *locks.Algorithm, spec *vprog.BarrierSpec, nthreads, iters int) *vprog.Program {
	return workload.Program(workload.Mutex(alg, iters), spec, nthreads)
}

// RWClient verifies a reader-writer lock: a writer updates two
// variables atomically (under the write lock), a reader snapshots both
// under the read lock and asserts it never observes a torn pair.
func RWClient(alg *locks.Algorithm, spec *vprog.BarrierSpec, writers, readers, iters int) *vprog.Program {
	return workload.Program(workload.RW(alg, writers, readers, iters), spec, writers+readers)
}
