// Package repro is a from-scratch Go reproduction of "VSync:
// Push-Button Verification and Optimization for Synchronization
// Primitives on Weak Memory Models" (Oberhauser et al., ASPLOS 2021;
// technical report arXiv:2102.06590).
//
// The public API lives in repro/vsync; see README.md for a tour. The
// benchmark harness in bench_test.go regenerates every table and figure
// of the paper's evaluation:
//
//	go test -bench=. -benchmem .
//
// The model checker's own hot path — work-graph exploration with
// intra-run work stealing, incremental relation extension, a
// closure-free acyclicity engine (bitset Kahn passes seeded by a
// topological order of sb ∪ rf ∪ mo carried incrementally across
// extension), 128-bit hashed dedup behind a sharded concurrent visited
// set with thread-symmetry reduction (canonicalized fingerprints
// collapse each thread-relabeling orbit of a symmetric lock client to
// one explored representative, cutting the state space by up to t!),
// copy-on-write graph branching, slab-allocated relation matrices
// with pooled scratch, and shared replay snapshots — is documented
// under "The work-graph explorer" and "Performance architecture" in
// README.md. A performance number has one home by kind: wall time to a
// verdict, the verdict store's cold and warm suite passes included, is
// the benchmark of record in benchmark/; deterministic state and
// execution counts are pinned by tests; kernels are `go test -bench`:
//
//	bash benchmark/run.sh --all      # see BENCHMARK.json
//
// Every verification problem — from vsync.Run, VerifyMatrix or an
// optimizer candidate — goes through one lifecycle (internal/problem):
// key, store lookup, checkpoint, AMC run, persist, on a run pool of
// its own.
// Verdicts persist in a shared, content-addressed store: any number of
// processes open sessions on one log (appends are record-atomic under
// a short-held sidecar lock; Refresh observes concurrent writers), and
// an optional HTTP tier (cmd/vsyncstored, `make stored`) pools a corpus
// across machines with graceful local-only degradation. See "Sharing the verdict store" in
// README.md.
package repro
