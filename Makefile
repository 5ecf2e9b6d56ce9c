# CI and humans run the exact same commands: the workflow in
# .github/workflows/ci.yml calls these targets and nothing else.

GO ?= go

# Persistent verdict store used by the incremental suite runner; CI
# caches this directory so warm runs skip already-decided AMC work.
STORE ?= .vsync-store/verdicts.log

.PHONY: build vet test test-short race allocs bench-smoke benchmark-smoke loc fmt-check suite t4-segment suite-warm suite-shared stored chaos fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# Full suite, including the slow optimization studies (minutes).
test:
	$(GO) test ./...

# CI wall-clock suite: slow paths are gated behind testing.Short().
test-short:
	$(GO) test -short ./...

# Race-detect the packages that exercise the parallel verification
# engine (worker pool, speculative ladder, verdict cache), then the
# work-graph explorer's own bars without -short: the full
# parallel-vs-sequential differential corpus, the symmetry-reduction
# differential corpus (canonicalization runs on every worker, sharing
# nothing but the visited set), the await-vs-bounded structure
# differential (the await reductions pinned against the explicit
# bounded-retry encodings at 1/2/4 workers, treiber t=3 included),
# the stealing/pool-borrow integration runs, the sharded visited set
# under concurrent load, and the poison-on-release corpus (the whole
# differential corpus with every retired slab and header poisoned: a
# stolen state's parent retires on the thief, and a release made too
# early is a wrong count there and a reported race here) together with
# the restriction differential (every relation set a revisit derives out
# of its parent's against BuildRels, on the same poisoned corpus: a
# revisit item pins its parent until a possibly stolen child derives from
# it) and the birth-rule audit (every revisit of a write rejected at birth
# replays to a collapse), the replay-memo audit (every memo hit replayed
# afresh and compared, over the corpus at 1 and 2 workers, and over the
# states whose shared replay results leave by an unusual way: a thief
# reads entries its victim made, so a write to one is a reported race
# here), and the SC
# axiom's kernel against its reference on the harvested corpus and the
# full random sweep (the kernel's scratch is stack and pool, shared by
# nothing), and the verdict store's differential against its reference
# loader at full size: every seed, the every-byte tear sweep and the
# two-sessions-one-log variant.
race:
	$(GO) test -race -short -count=5 ./vsync
	$(GO) test -race -short ./internal/core ./internal/frame ./internal/optimize ./internal/store ./internal/structs ./internal/workload
	$(GO) test -race -run 'TestParallel|TestVisitedSet|TestPoolSlot|TestSym|TestBirthRuleAudit' ./internal/core
	$(GO) test -race -run 'TestPoison|TestRestrict' ./internal/graph
	$(GO) test -race -run 'TestMemo|TestSnap' ./internal/core
	$(GO) test -race -run 'TestPsc' ./internal/mm
	$(GO) test -race -run 'TestAwaitDifferential' ./internal/structs
	$(GO) test -race -run 'TestOpenShared|TestRefresh|TestMerge|TestCompact|TestRemote|TestMultiProcess|TestDiff' ./internal/store

# Allocation-regression bars (objects and bytes per popped state and, for
# the benchmark's treiber cell, per run; zero allocations on a warm free
# list; a store open that allocates the same handful of objects at any
# log size): gated out of -short, so this is where they run.
allocs:
	$(GO) test -run TestAllocs ./internal/core ./internal/graph ./internal/mm ./internal/store

# One cheap pass over the benchmark harness to catch bit-rot in the
# table/figure emitters without running the full campaign.
bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ .

# The benchmark of record (benchmark/, see BENCHMARK.json) is a module
# of its own, so `go test ./...` at the root never descends into it:
# this runs its harness end to end on a tiny stand-in cell and checks
# BENCHMARK.json against its metric and workload tables (~4 s).
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# ROADMAP's size number: non-test Go lines outside benchmark/. Every
# line-delta claim in CHANGES.md is this command before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

# Incremental verification suite against the persistent verdict store:
# decided cells cost a hash lookup, new verdicts are appended. Exit 3
# (undecided, resumed by the next run) is tolerated where a budget is
# set. vsyncsuite is built once and run directly, because `go run`
# collapses every non-zero child exit to 1.
#   1. the whole default corpus at t=2: every lock, structure and litmus test
#   2. mcs at t=3, every model: the acyclicity engine's smoke cell
#   3. clh and ttas at t=3: what thread-symmetry reduction brought into range
#   4. treiber, seqlock, msqueue at t=3: the await-aware CAS-loop reduction and the birth filter
#   5. treiber at t=4: a bounded segment of a cell still out of reach (exits 3)
suite:
	@set -e; \
	bin=$$(mktemp -t vsyncsuite.XXXXXX); \
	trap 'rm -f $$bin' EXIT; \
	$(GO) build -o $$bin ./cmd/vsyncsuite; \
	$$bin -store $(STORE); \
	$$bin -store $(STORE) -locks mcs -threads 3 -no-litmus -no-structs; \
	$$bin -store $(STORE) -locks clh,ttas -threads 3 -no-litmus -no-structs -budget 60s || [ $$? -eq 3 ]; \
	$$bin -store $(STORE) -structs structs/treiber,structs/seqlock,structs/msqueue -no-locks -no-litmus -threads 3 -budget 60s || [ $$? -eq 3 ]; \
	$$bin -store $(STORE) -structs structs/treiber -no-locks -no-litmus -threads 4 -budget 90s -budget-graphs 1500000 || [ $$? -eq 3 ]

# The cell every roadmap quotes and no benchmark row tracks yet: the
# same treiber t=4 segment `make suite` ends on, at one worker and
# through vsynccheck, whose report of an undecided run carries the
# figures that matter there — how many states the segment left queued
# and the most it ever held ("frontier peaked at"), and the memory line.
# It runs twice through one temporary -checkpoint-dir: both runs must
# exit 3 (undecided, checkpointed), and the second must resume the
# first's frontier, which its report shows as 3,000,000 graphs explored
# in all — a per-segment budget lets a resumed run go on as long as the
# first one did (~36 s on 2 vCPUs; the resumed run peaks at ~1.2 GB RSS).
t4-segment:
	@set -e; \
	bin=$$(mktemp -t vsynccheck.XXXXXX); dir=$$(mktemp -d -t vsyncckpt.XXXXXX); \
	trap 'rm -rf $$bin $$dir' EXIT; \
	$(GO) build -o $$bin ./cmd/vsynccheck; \
	for seg in 1 2; do \
		code=0; \
		$$bin -workload structs/treiber -threads 4 -workers 1 -budget-graphs 1500000 -checkpoint-dir $$dir > $$dir/log || code=$$?; \
		cat $$dir/log; \
		if [ $$code -ne 3 ]; then echo "t4-segment: run $$seg exited $$code, want 3" >&2; exit 1; fi; \
	done; \
	grep -q '(3000000 graphs explored' $$dir/log || { echo "t4-segment: the second run did not resume the first" >&2; exit 1; }

# Warm assertion: over an unchanged corpus the store must serve at
# least 99% of the cells (CI runs `make suite` first, so in practice
# 100% — the whole matrix without a single AMC run).
suite-warm:
	$(GO) run ./cmd/vsyncsuite -store $(STORE) -min-hit-rate 0.99

# Multi-writer proof at the CLI level: two vsyncsuite processes run the
# full corpus concurrently against ONE live store (each observes the
# other's verdicts as they land, splitting the cold work), then a third
# pass asserts the combined accounting — every cell decided, none lost,
# the whole matrix served without an AMC run.
suite-shared:
	@set -e; \
	bin=$$(mktemp -t vsyncsuite.XXXXXX); \
	trap 'rm -f $$bin' EXIT; \
	$(GO) build -o $$bin ./cmd/vsyncsuite; \
	$$bin -store $(STORE) & pid1=$$!; \
	$$bin -store $(STORE) & pid2=$$!; \
	wait $$pid1; wait $$pid2; \
	$$bin -store $(STORE) -min-hit-rate 1

# The shared verdict service: vsynccheck/vsyncopt/vsyncsuite/vsynclitmus
# point -remote at it to tier lookups through a fleet-wide corpus.
stored:
	$(GO) run ./cmd/vsyncstored -store $(STORE)

# Crash-safety battery: the kill -9 suite harness (a subprocess suite
# run is killed at random points and must resume to verdicts identical
# to an uninterrupted run), the fault-injection store tests (torn
# appends, failed renames/flocks, remote outages), and the
# checkpoint/budget differential corpus — everything gated out of
# -short, run here without it (TestResume takes in the treiber t=4
# resume at 300,000 + 100,000 pops, ~8 s).
chaos:
	$(GO) test -run 'TestChaos' -count=1 -v ./vsync
	$(GO) test -run 'Fault|Torn|Requeue|Backoff|Readyz' -count=1 ./internal/store
	$(GO) test -run 'TestBudget|TestCheckpoint|TestResume|TestCancelCheckpoint|TestPeriodicCheckpoint' -count=1 ./internal/core ./vsync
	$(GO) test ./internal/faultinject

# Brief coverage-guided fuzz of the three decoders over internal/frame:
# arbitrary bytes as an on-disk log must load or heal, never panic or
# serve a non-decisive verdict; as a checkpoint or an encoded graph they
# must be refused or decode to something that re-encodes to the same
# bytes and (a checkpoint) resumes to a verdict. The seed corpora also
# run as normal tests in test/-short. The short minimize time keeps the
# ten seconds for finding inputs rather than shrinking them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzStoreLoad -fuzztime=10s -fuzzminimizetime=1s ./internal/store
	$(GO) test -run '^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=10s -fuzzminimizetime=1s ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzDecodeGraph -fuzztime=10s -fuzzminimizetime=1s ./internal/graph
