package core_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// The crash-safety bar: a run segmented by any budget, resumed from its
// checkpoints until decided, must be observably identical to the
// uninterrupted run — same verdict, same counterexample, and (for the
// sequential DFS, whose pop order the checkpoint format reproduces
// exactly) the same statistics to the last counter.

// ckptCorpus returns the differential programs: small litmus shapes
// where budget=1 forces a segment per state, the fig.1 await-violation
// study, and the mutex clients whose revisit-generated forced-rf states
// exercise every record shape the checkpoint can hold.
func ckptCorpus() []*vprog.Program {
	mcs := locks.ByName("mcs")
	dpdk := locks.ByName("dpdkmcs-buggy")
	return []*vprog.Program{
		harness.Litmus("SB", false),                         // safety violation
		harness.Litmus("SB+fences", false),                  // ok
		harness.Litmus("IRIW", false),                       // safety violation
		harness.Fig1PartialMCS(true),                        // await-termination violation
		harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1),   // ok, 292 states
		harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1), // await-termination violation
	}
}

// runSegmented resumes a budgeted run until it decides. With roundTrip
// set, every intermediate checkpoint is encoded, decoded, and checked
// for canonical re-encoding before being resumed — so the decoded form,
// not the in-memory one, is what carries the run forward. It reports
// the final result and the segment count.
func runSegmented(t *testing.T, model mm.Model, p *vprog.Program, workers int, b core.Budget, roundTrip bool) (*core.Result, int) {
	t.Helper()
	var ck *core.Checkpoint
	segs := 0
	for {
		c := core.New(model)
		c.WorkersPerRun = workers
		c.Budget = b
		c.Resume = ck
		res := c.Run(p)
		segs++
		if res.Verdict == core.Error {
			t.Fatalf("%s segment %d: %v", p.Name, segs, res.Err)
		}
		if res.Verdict != core.Undecided {
			return res, segs
		}
		if res.Checkpoint == nil {
			t.Fatalf("%s segment %d: undecided result without checkpoint", p.Name, segs)
		}
		ck = res.Checkpoint
		if ck.FrontierLen() == 0 {
			t.Fatalf("%s segment %d: undecided with an empty frontier", p.Name, segs)
		}
		if roundTrip {
			data := ck.Encode()
			dec, err := core.DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("%s segment %d: decode: %v", p.Name, segs, err)
			}
			if !bytes.Equal(dec.Encode(), data) {
				t.Fatalf("%s segment %d: re-encoding a decoded checkpoint changed the bytes", p.Name, segs)
			}
			if dec.FrontierLen() != ck.FrontierLen() || dec.VisitedLen() != ck.VisitedLen() {
				t.Fatalf("%s segment %d: decode lost records (%d/%d states, %d/%d visited)",
					p.Name, segs, dec.FrontierLen(), ck.FrontierLen(), dec.VisitedLen(), ck.VisitedLen())
			}
			ck = dec
		}
		if segs > 10000 {
			t.Fatalf("%s: still undecided after %d segments (budget %+v)", p.Name, segs, b)
		}
	}
}

// TestBudgetSegmentedSequentialExact: segmenting the sequential DFS by
// a graph budget must reproduce the uninterrupted run exactly — the
// checkpoint frontier order and the budget-tripped state's return to
// the deque tail together reproduce the pop sequence, so even the
// partial-search statistics of a violation run match counter for
// counter.
func TestBudgetSegmentedSequentialExact(t *testing.T) {
	for _, p := range ckptCorpus() {
		base := run(t, mm.WMM, p, 1, false)
		for _, bg := range []int64{1, 7, 50} {
			res, segs := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: bg}, false)
			if res.Verdict != base.Verdict {
				t.Fatalf("%s budget=%d: verdict %v, uninterrupted run says %v", p.Name, bg, res.Verdict, base.Verdict)
			}
			if res.Stats != base.Stats {
				t.Fatalf("%s budget=%d (%d segments): stats diverged\nsegmented:     %+v\nuninterrupted: %+v",
					p.Name, bg, segs, res.Stats, base.Stats)
			}
			if witnessKey(res) != witnessKey(base) {
				t.Fatalf("%s budget=%d: counterexample diverged across segmentation", p.Name, bg)
			}
			if res.Message != base.Message {
				t.Fatalf("%s budget=%d: message diverged: %q vs %q", p.Name, bg, res.Message, base.Message)
			}
			if wantSegs := (int64(base.Stats.Popped) + bg - 1) / bg; bg == 1 && int64(segs) < wantSegs {
				t.Fatalf("%s budget=1: only %d segments for %d pops — budget did not bound the segments",
					p.Name, segs, base.Stats.Popped)
			}
		}
	}
}

// TestBudgetSegmentedParallel: the same bar for work-graph runs, on the
// schedule-independent observables — verdict, execution enumeration,
// and the deterministic minimal counterexample, which must survive
// traveling between segments as a checkpoint record.
func TestBudgetSegmentedParallel(t *testing.T) {
	for _, p := range ckptCorpus() {
		base := run(t, mm.WMM, p, 4, false)
		for _, bg := range []int64{7, 50} {
			res, segs := runSegmented(t, mm.WMM, p, 4, core.Budget{MaxGraphs: bg}, false)
			if res.Verdict != base.Verdict {
				t.Fatalf("%s par4 budget=%d: verdict %v, uninterrupted says %v", p.Name, bg, res.Verdict, base.Verdict)
			}
			if !sameEnumeration(res, base) {
				t.Fatalf("%s par4 budget=%d (%d segments): enumeration diverged\nsegmented:     %+v\nuninterrupted: %+v",
					p.Name, bg, segs, res.Stats, base.Stats)
			}
			if witnessKey(res) != witnessKey(base) {
				t.Fatalf("%s par4 budget=%d: counterexample became schedule-dependent across segments", p.Name, bg)
			}
			if res.Message != base.Message {
				t.Fatalf("%s par4 budget=%d: message diverged: %q vs %q", p.Name, bg, res.Message, base.Message)
			}
		}
	}
}

// TestCheckpointEncodeDecodeRoundTrip drives whole segmented runs
// through the binary format: every intermediate checkpoint is decoded
// from its own bytes before resuming, so any field the encoding drops
// or distorts shows up as a verdict or stats divergence. dpdkmcs-buggy
// exercises the violation record (a front-runner found mid-run must
// ride the checkpoint) and revisit-generated forced-rf states.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	mcs := locks.ByName("mcs")
	dpdk := locks.ByName("dpdkmcs-buggy")
	ok := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	bug := harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1)

	for _, workers := range []int{1, 4} {
		base := run(t, mm.WMM, ok, workers, false)
		res, _ := runSegmented(t, mm.WMM, ok, workers, core.Budget{MaxGraphs: 7}, true)
		if res.Verdict != base.Verdict || res.Stats.Executions != base.Stats.Executions {
			t.Fatalf("mcs workers=%d through encode/decode: %v/%d executions, want %v/%d",
				workers, res.Verdict, res.Stats.Executions, base.Verdict, base.Stats.Executions)
		}
	}
	base := run(t, mm.WMM, bug, 2, false)
	res, _ := runSegmented(t, mm.WMM, bug, 2, core.Budget{MaxGraphs: 1}, true)
	if res.Verdict != base.Verdict || witnessKey(res) != witnessKey(base) {
		t.Fatalf("dpdkmcs-buggy through encode/decode: verdict %v witness %x, want %v %x",
			res.Verdict, witnessKey(res), base.Verdict, witnessKey(base))
	}
}

// interruptedCheckpoint returns a mid-run checkpoint of the mcs client
// (budget-interrupted, so the frontier is non-trivial).
func interruptedCheckpoint(t *testing.T) *core.Checkpoint {
	t.Helper()
	mcs := locks.ByName("mcs")
	c := core.New(mm.WMM)
	c.Budget = core.Budget{MaxGraphs: 30} // of the 56 states the run pops
	res := c.Run(harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1))
	if res.Verdict != core.Undecided || res.Checkpoint == nil {
		t.Fatalf("expected a budget interrupt, got %v", res.Verdict)
	}
	return res.Checkpoint
}

// TestCheckpointFileAtomicity: the sidecar file round-trips through
// WriteCheckpointFile/LoadCheckpointFile, and an injected write or
// rename failure leaves the previous complete file intact with no temp
// litter — the tmp+rename discipline under fault injection.
func TestCheckpointFileAtomicity(t *testing.T) {
	defer faultinject.Reset()
	ck := interruptedCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	if err := core.WriteCheckpointFile(path, ck); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := core.LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(got.Encode(), ck.Encode()) {
		t.Fatal("file round-trip changed the checkpoint bytes")
	}

	before, _ := os.ReadFile(path)
	for _, spec := range []string{"ckpt.write:err", "ckpt.rename:err"} {
		if err := faultinject.Configure(spec); err != nil {
			t.Fatalf("configure %q: %v", spec, err)
		}
		if err := core.WriteCheckpointFile(path, ck); err == nil {
			t.Fatalf("%s: injected fault did not surface", spec)
		}
		faultinject.Reset()
		after, _ := os.ReadFile(path)
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: failed write disturbed the existing checkpoint", spec)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s: temp files left behind: %v", spec, ents)
		}
		if _, err := core.LoadCheckpointFile(path); err != nil {
			t.Fatalf("%s: previous checkpoint no longer loads: %v", spec, err)
		}
	}
}

// TestCheckpointDecodeRejectsDamage: a torn or bit-flipped checkpoint
// file must be refused entirely — resuming from a partial frontier
// could silently skip the violating branch, so there is no salvage
// path, only the cold-run fallback.
func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	data := interruptedCheckpoint(t).Encode()
	if _, err := core.DecodeCheckpoint(data); err != nil {
		t.Fatalf("pristine image must decode: %v", err)
	}
	// Truncations: every short prefix (sampled, plus both ends) fails.
	for cut := 0; cut < len(data); cut += 1 + cut/16 {
		if _, err := core.DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", cut, len(data))
		}
	}
	if _, err := core.DecodeCheckpoint(data[:len(data)-1]); err == nil {
		t.Fatal("dropping the final byte decoded")
	}
	// Bit flips: framing damage fails the magic or length checks,
	// payload damage fails the CRC.
	for off := 0; off < len(data); off += 1 + off/32 {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[off] ^= bit
			if _, err := core.DecodeCheckpoint(mut); err == nil {
				t.Fatalf("flipping bit %#x at offset %d decoded", bit, off)
			}
		}
	}
	// Trailing garbage after a complete image.
	if _, err := core.DecodeCheckpoint(append(append([]byte(nil), data...), data[:24]...)); err == nil {
		t.Fatal("image with trailing records decoded")
	}
}

// TestResumeIdentityValidation: a checkpoint resumes only against the
// (model, program) pair it was taken from; anything else is an Error,
// not a silent wrong answer.
func TestResumeIdentityValidation(t *testing.T) {
	ck := interruptedCheckpoint(t)
	mcs := locks.ByName("mcs")
	ticket := locks.ByName("ticket")
	prog := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)

	c := core.New(mm.SC)
	c.Resume = ck
	if res := c.Run(prog); res.Verdict != core.Error {
		t.Fatalf("resume under the wrong model: %v, want error", res.Verdict)
	}
	c = core.New(mm.WMM)
	c.Resume = ck
	if res := c.Run(harness.MutexClient(ticket, ticket.DefaultSpec(), 2, 1)); res.Verdict != core.Error {
		t.Fatalf("resume against the wrong program: %v, want error", res.Verdict)
	}
	// The happy path still works after the refusals.
	c = core.New(mm.WMM)
	c.Resume = ck
	if res := c.Run(prog); res.Verdict != core.OK {
		t.Fatalf("valid resume: %v, want ok", res.Verdict)
	}
}

// TestPeriodicCheckpointSink: with an interval set, a run hands
// checkpoints to the sink while exploring, and any one of them resumes
// to the uninterrupted run's verdict and enumeration — the property
// the crash-recovery path depends on.
func TestPeriodicCheckpointSink(t *testing.T) {
	mcs := locks.ByName("mcs")
	prog := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	for _, workers := range []int{1, 4} {
		base := run(t, mm.WMM, prog, workers, false)
		var mu sync.Mutex
		var snaps []*core.Checkpoint
		c := core.New(mm.WMM)
		c.WorkersPerRun = workers
		c.CheckpointInterval = time.Nanosecond
		c.CheckpointSink = func(ck *core.Checkpoint) error {
			mu.Lock()
			snaps = append(snaps, ck)
			mu.Unlock()
			return nil
		}
		res := c.Run(prog)
		if res.Verdict != base.Verdict || res.Stats.Executions != base.Stats.Executions {
			t.Fatalf("workers=%d: snapshotting changed the run: %v/%d executions, want %v/%d",
				workers, res.Verdict, res.Stats.Executions, base.Verdict, base.Stats.Executions)
		}
		if len(snaps) == 0 {
			t.Fatalf("workers=%d: sink never received a checkpoint", workers)
		}
		for _, ck := range []*core.Checkpoint{snaps[0], snaps[len(snaps)-1]} {
			dec, err := core.DecodeCheckpoint(ck.Encode())
			if err != nil {
				t.Fatalf("workers=%d: periodic checkpoint does not round-trip: %v", workers, err)
			}
			c2 := core.New(mm.WMM)
			c2.WorkersPerRun = workers
			c2.Resume = dec
			res2 := c2.Run(prog)
			if res2.Verdict != base.Verdict || !sameEnumeration(res2, base) {
				t.Fatalf("workers=%d: resuming a periodic checkpoint diverged: %v/%d executions, want %v/%d",
					workers, res2.Verdict, res2.Stats.Executions, base.Verdict, base.Stats.Executions)
			}
		}
	}
}

// TestCancelCheckpoint: a cancellation with CheckpointOnCancel set
// drains into an Undecided-with-checkpoint — the SIGINT path — and the
// resumed run finishes with exactly the uninterrupted statistics. The
// cancel is triggered from the first periodic sink call and lands at
// the next multiple of the 256-pop cancellation cadence, so the run
// must comfortably exceed 256 pops: the three-thread qspinlock client
// pops ~2k states even with the birth filter and symmetry reduction on.
func TestCancelCheckpoint(t *testing.T) {
	qspin := locks.ByName("qspin")
	prog := harness.MutexClient(qspin, qspin.DefaultSpec(), 3, 1)
	base := run(t, mm.WMM, prog, 1, false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := core.New(mm.WMM)
	c.CheckpointOnCancel = true
	c.CheckpointInterval = time.Nanosecond
	c.CheckpointSink = func(*core.Checkpoint) error { cancel(); return nil }
	res := c.RunCtx(ctx, prog)
	if res.Verdict != core.Undecided || res.Checkpoint == nil {
		t.Fatalf("canceled run: %v (checkpoint %v), want undecided with checkpoint", res.Verdict, res.Checkpoint != nil)
	}
	if res.Stats.Popped == 0 || res.Stats.Popped >= base.Stats.Popped {
		t.Fatalf("cancellation landed outside the run: %d pops of %d", res.Stats.Popped, base.Stats.Popped)
	}

	c2 := core.New(mm.WMM)
	c2.Resume = res.Checkpoint
	res2 := c2.Run(prog)
	if res2.Verdict != core.OK || res2.Stats != base.Stats {
		t.Fatalf("resume after cancel diverged: %v %+v, want ok %+v", res2.Verdict, res2.Stats, base.Stats)
	}
}

// TestBudgetDuration: the wall-clock budget interrupts a long run and
// the result still resumes to the correct verdict — the budget kind the
// suite flags actually use.
func TestBudgetDuration(t *testing.T) {
	mcs := locks.ByName("mcs")
	prog := harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
	base := run(t, mm.WMM, prog, 1, false)
	res, _ := runSegmented(t, mm.WMM, prog, 1, core.Budget{MaxDuration: time.Microsecond}, false)
	if res.Verdict != base.Verdict || res.Stats != base.Stats {
		t.Fatalf("duration-segmented run diverged: %v %+v, want %v %+v",
			res.Verdict, res.Stats, base.Verdict, base.Stats)
	}
}
