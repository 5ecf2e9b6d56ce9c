# CI and humans run the exact same commands: the workflow in
# .github/workflows/ci.yml calls these targets and nothing else.

GO ?= go

# Persistent verdict store used by the incremental suite runner; CI
# caches this directory so warm runs skip already-decided AMC work.
STORE ?= .vsync-store/verdicts.log

.PHONY: build vet test test-short race allocs bench-smoke benchmark-smoke loc fmt-check quickstart suite t4-segment suite-warm suite-shared stored chaos fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# Full suite, including what -short gates off (the big corpus cells and
# every qspin descent of TestDescentPinned; under a minute).
test:
	$(GO) test ./...

# CI wall-clock suite: slow paths are gated behind testing.Short().
test-short:
	$(GO) test -short ./...

# testrun runs `go test $(3) -run '$(1)' $(2)`, but first fails unless
# every |-separated alternative of the pattern $(1) lists at least one
# test in the packages $(2): go test passes on a -run pattern that
# matches nothing, so a renamed or deleted test would otherwise leave
# its line silently empty.
testrun = for alt in $$(echo '$(1)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(2) | grep -Eq '^(Test|Fuzz|Example)' || \
		{ echo "no test in $(2) matches -run alternative $$alt" >&2; exit 1; }; \
	done; \
	echo "$(GO) test $(3) -run '$(1)' $(2)"; \
	$(GO) test $(3) -run '$(1)' $(2)

# Race-detect the packages that exercise the parallel verification
# engine (the one problem lifecycle — key → store → run → persist,
# internal/problem — that vsync.Run, VerifyMatrix and the optimizer all
# decide through; the optimizer's only concurrency is a candidate's
# programs on Resolve's pool, which lives there too: its fail-fast,
# ordered-admission and own-workers tests run on their own line below,
# without -short), then the work-graph explorer's own bars without
# -short: the await-vs-bounded structure differential (the await
# reductions pinned against the explicit bounded-retry encodings at
# 1/2/4 workers, treiber t=3 included), the stealing runs, the
# symmetry tests (canonicalization runs on every worker, sharing
# nothing but the visited set), the sharded visited set under
# concurrent load, and each package's audited corpus (one exploration
# per cell, model, symmetry setting and worker count with every audit
# armed, run once by TestAuditedCorpus and judged check by check by the
# tests named after the checks). In internal/core that is the
# birth-rule audit, the replay-memo audit (a thief reads entries its
# victim made, so a write to one is a reported race here), the dedup-key
# audit and the acyclicity oracle, and the comparisons across each
# row's worker counts (TestParallelDifferential) and symmetry settings
# (TestSymDifferential), next to the memo's own bars for the states
# whose shared replay results leave by an unusual way (TestSnap*). In internal/graph it is poison-on-release (a stolen
# state's parent retires on the thief, and a release made too early is a
# wrong count there and a reported race here), the restriction
# differential (a revisit item pins its parent until a possibly stolen
# child derives from it) and the incremental audit (every signature
# state and coherence flag a child carries over, possibly across
# workers, derived again), next to the other poison and restriction
# tests; its msqueue t=3 subtest is skipped (seconds without the
# detector, minutes with it). Then the SC axiom's kernel against its
# reference on the harvested corpus and the full random sweep (the
# kernel's scratch is stack and pool, shared by nothing), and the
# verdict store's differential against its reference loader at full
# size: every seed, the every-byte tear sweep and the
# two-sessions-one-log variant. The store's loader runs its reader,
# checker and indexer on goroutines of their own, so its tests run five
# times more at -short, at the default chunk size and at chunks of 1, 7
# and 64 bytes (TestChunkBoundaries), as the vsync line runs five times.
# Every -run line goes through testrun.
race:
	$(GO) test -race -short -count=5 ./vsync
	$(GO) test -race -short ./internal/core ./internal/frame ./internal/optimize ./internal/problem ./internal/store ./internal/structs ./internal/workload
	@$(call testrun,TestParallel|TestVisitedSet|TestSym|TestAuditedCorpus|TestBirthRuleAudit|TestMemoAuditCorpus|TestDedupDifferential|TestSnap,./internal/core,-race)
	@$(call testrun,TestPool|TestResolve,./internal/problem,-race)
	@$(call testrun,TestAuditedCorpus|TestIncrementalAudit|TestPoison|TestRestrict,./internal/graph,-race -skip TestAuditedCorpus/msqueue-t3)
	@$(call testrun,TestPsc,./internal/mm,-race)
	@$(call testrun,TestAwaitDifferential,./internal/structs,-race)
	@$(call testrun,TestOpenShared|TestRefresh|TestCompact|TestRemote|TestMultiProcess|TestDiff,./internal/store,-race)
	@$(call testrun,TestDiff|TestChunkBoundaries|TestOpenShortRead|TestLogSizeLimit|TestServiceStatsCarryOpenCost|TestMultiProcess,./internal/store,-race -short -count=5)

# Allocation-regression bars (objects and bytes per popped state and, for
# the benchmark's treiber cell, per run; zero allocations on a warm free
# list; a store open that allocates the same handful of objects at any
# log size): gated out of -short, so this is where they run.
allocs:
	$(GO) test -run TestAllocs ./internal/core ./internal/graph ./internal/mm ./internal/store

# One cheap pass over the benchmark harness to catch bit-rot in the
# table/figure emitters without running the full campaign, and one open
# of the store's 200,000-record log, so its benchmark cannot rot either.
bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -run='^$$' -bench=Open200k -benchtime=1x ./internal/store

# The benchmark of record (benchmark/, see BENCHMARK.json) is a module
# of its own, so `go test ./...` at the root never descends into it:
# this runs its harness end to end on a tiny stand-in cell and checks
# BENCHMARK.json against its metric and workload tables (~4 s).
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# README's "Quick start" block, run as written: every `go run ./PKG
# ARGS` line of its sh fence is built once (each PKG into one temporary
# directory) and run from there, and any failure fails the target. A
# line that is not `go run`, or a fence that has none, fails it too, so
# a command the docs still show cannot outlive the tool behind it.
quickstart:
	@set -e; \
	dir=$$(mktemp -d -t vsyncqs.XXXXXX); \
	trap 'rm -rf $$dir' EXIT; \
	awk '/^## Quick start/ { q = 1 } q && /^```sh/ { b = 1; next } b && /^```/ { exit } b && NF' README.md | \
		sed 's/[[:space:]]*#.*//' > $$dir/cmds; \
	test -s $$dir/cmds || { echo "quickstart: no commands in README's Quick start block" >&2; exit 1; }; \
	if grep -v '^go run \./' $$dir/cmds; then echo "quickstart: the lines above are not 'go run ./PKG'" >&2; exit 1; fi; \
	$(GO) build -o $$dir/ $$(awk '{ print $$3 }' $$dir/cmds | sort -u); \
	while read -r line; do \
		cmd=$$(echo "$$line" | sed "s|^go run \./\([^ ]*/\)*|$$dir/|"); \
		echo "+ $$line"; \
		$$cmd < /dev/null; \
	done < $$dir/cmds

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

# The shared verdict service: vsynccheck/vsyncopt/vsyncsuite point
# -remote at it to tier lookups through a fleet-wide corpus.
stored:
	$(GO) run ./cmd/vsyncstored -store $(STORE)

# Crash-safety battery: the kill -9 suite harness (a subprocess suite
# run is killed at random points and must resume to verdicts identical
# to an uninterrupted run), the fault-injection store tests (torn
# appends, failed renames/flocks, remote outages), and the
# checkpoint/budget differential corpus — everything gated out of
# -short, run here without it (TestResume takes in the treiber t=4
# resume at 300,000 + 100,000 pops, ~8 s). Every -run line goes through
# testrun, as in race.
chaos:
	@$(call testrun,TestChaos,./vsync,-count=1 -v)
	@$(call testrun,Fault|Torn|Requeue|Backoff|Readyz,./internal/store,-count=1)
	@$(call testrun,TestBudget|TestCheckpoint|TestResume|TestCancelCheckpoint|TestPeriodicCheckpoint,./internal/core ./vsync,-count=1)
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
