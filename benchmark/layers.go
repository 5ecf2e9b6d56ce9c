package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/vprog"
	wl "repro/internal/workload"
	"repro/vsync"
)

// cellPass is the traced run of one exhaustive check: program
// construction, the exploration under a traced model, an untraced
// sequential reference run of the same program, and the graph kernels
// over the graphs the traced model sampled.
//
// The reference run gives three things: the tracing overhead (when the
// traced run is sequential too), the parallel speed-up (when it is
// not), and the determinism pin — the counts the runs must share. Both
// kinds run twice, in the order untraced, traced, traced, untraced, so
// that neither a warm heap nor a drifting machine favours one of them;
// the layer numbers are the first traced run's.
func cellPass(h *bench, tr *tracer, threads, workers int, cell string) (sample, error) {
	root := tr.start("workload", -1)
	defer tr.end(root)
	s := sample{"vprog.programs_built": 1}

	// Symmetry validation first: the fingerprint of a symmetric program
	// starts from the validated groups and would otherwise pay for both.
	var p *vprog.Program
	var sym *graph.SymSpec
	s["vprog.build_s"] = tr.timed("vprog.build", root, func() {
		p = wl.Program(wl.ByName("structs/treiber"), nil, threads)
	}).Seconds()
	s["vprog.symspec_s"] = tr.timed("vprog.symspec", root, func() { sym = p.SymSpec() }).Seconds()
	s["vprog.fingerprint_s"] = tr.timed("vprog.fingerprint", root, func() { p.Fingerprint128() }).Seconds()

	untraced := func() *core.Result {
		var ref *core.Result
		tr.timed("core.run.untraced", root, func() {
			measureRT(func() { ref = core.New(mm.WMM).RunCtx(context.Background(), p) })
		})
		return ref
	}
	type tracedRun struct {
		res  *core.Result
		rt   rtDelta
		tm   *tracedModel
		span int
	}
	traced := func() tracedRun {
		t := tracedRun{tm: newTracedModel(mm.WMM), span: tr.start("core.run", root)}
		t.rt = measureRT(func() {
			c := core.New(t.tm)
			c.WorkersPerRun = workers
			t.res = c.RunCtx(context.Background(), p)
		})
		tr.end(t.span)
		tr.aggregate("mm.consistent", t.span, t.tm.calls.Load(), t.tm.busy())
		return t
	}
	u1 := untraced()
	t1 := traced()
	t2 := traced()
	u2 := untraced()

	want := h.exp.verdict(cell, "wmm")
	for _, r := range []*core.Result{u1, t1.res, t2.res, u2} {
		if r.Verdict.String() != want {
			return nil, fmt.Errorf("%s: in-process verdict %q, want %q", cell, r.Verdict, want)
		}
		if r.Stats.Executions != u1.Stats.Executions {
			return nil, fmt.Errorf("%s: %d executions in one run, %d in another", cell, r.Stats.Executions, u1.Stats.Executions)
		}
		if workers == 1 && r.Stats.Popped != u1.Stats.Popped {
			return nil, fmt.Errorf("%s: %d states popped in one sequential run, %d in another", cell, r.Stats.Popped, u1.Stats.Popped)
		}
	}

	coreMetrics(s, t1.res, t1.rt)
	s["core.self_s"] = tr.self(t1.span, workers).Seconds()
	tracedS := (t1.res.Duration + t2.res.Duration).Seconds()
	untracedS := (u1.Duration + u2.Duration).Seconds()
	if workers == 1 {
		s["trace.overhead_share"] = tracedS/untracedS - 1
	} else {
		s["core.par_speedup"] = untracedS / tracedS
	}
	mmMetrics(s, t1.tm)
	return s, graphKernels(s, tr, root, t1.tm, sym)
}

// coreMetrics reads one exploration's own accounting.
func coreMetrics(s sample, res *core.Result, rt rtDelta) {
	st, popped := res.Stats, float64(res.Stats.Popped)
	s["core.run_s"] = res.Duration.Seconds()
	s["core.states_popped"] = popped
	s["core.executions"] = float64(st.Executions)
	s["core.states_per_s"] = share(popped, res.Duration.Seconds())
	pruned := st.Duplicates + st.Inconsist + st.Wasteful + st.Collapsed
	s["core.useful_share"] = share(float64(st.Popped-pruned), popped)
	s["core.inconsistent_share"] = share(float64(st.Inconsist), popped)
	s["core.duplicate_share"] = share(float64(st.Duplicates), popped)
	s["core.revisits"] = float64(st.Revisits)
	s["core.allocs_per_state"] = share(rt.allocs, popped)
	s["core.alloc_bytes_per_state"] = share(rt.bytes, popped)
	s["core.gc_cpu_share"] = rt.gcCPUShare
	s["core.heap_peak_mb"] = rt.heapPeakMB
	s["core.steals"] = float64(res.Sched.Steals)
	s["core.shard_contention"] = float64(res.Sched.Contention)
	if ex := res.Sched.Executed; len(ex) > 0 {
		lo, hi := ex[0], ex[0]
		for _, n := range ex {
			lo, hi = min(lo, n), max(hi, n)
		}
		s["core.worker_balance"] = share(float64(lo), float64(hi))
	}
}

func mmMetrics(s sample, tm *tracedModel) {
	calls := float64(tm.calls.Load())
	s["mm.consistent_calls"] = calls
	s["mm.consistent_busy_s"] = tm.busy().Seconds()
	s["mm.consistent_ns_per_call"] = share(float64(tm.busy().Nanoseconds()), calls)
	s["mm.reject_share"] = share(float64(tm.rejects.Load()), calls)
}

// graphKernels replays the graph layer's per-state kernels over the
// corpus the traced model sampled, reusing scratch the way the explorer
// does, and reports each kernel's time per graph (median of the rounds).
func graphKernels(s sample, tr *tracer, parent int, tm *tracedModel, sym *graph.SymSpec) error {
	corpus := tm.corpus
	if len(corpus) == 0 {
		return nil
	}
	id := tr.start("graph.kernels", parent)
	defer tr.end(id)
	n := float64(len(corpus))
	graphs := make([]*graph.Graph, len(corpus))
	events := 0
	var scratch graph.SymScratch
	var buf []byte
	var decodeErr error
	fast := 0
	type kernel struct {
		name string
		fn   func(i int)
	}
	kernels := []kernel{
		{"graph.decode_ns", func(i int) {
			g, _, err := graph.DecodeGraph(corpus[i])
			if err != nil {
				decodeErr = err
			}
			graphs[i] = g
		}},
		{"graph.build_rels_ns", func(i int) { graph.BuildRels(graphs[i]) }},
		{"graph.fingerprint_ns", func(i int) { graphs[i].Fingerprint128() }},
		{"graph.clone_ns", func(i int) { graphs[i].Clone() }},
		{"graph.encode_ns", func(i int) { buf = graph.AppendGraph(buf[:0], graphs[i]) }},
	}
	if sym != nil {
		kernels = append(kernels, kernel{"graph.canonicalize_ns", func(i int) {
			if _, _, isFast, _ := sym.Canonicalize(graphs[i], &scratch, false, graph.EventID{}, graph.EventID{}); isFast {
				fast++
			}
		}})
	}
	const rounds = 3
	for _, k := range kernels {
		var perGraph []float64
		for r := 0; r < rounds; r++ {
			fast = 0
			t0 := time.Now()
			for i := range corpus {
				k.fn(i)
			}
			perGraph = append(perGraph, float64(time.Since(t0).Nanoseconds())/n)
		}
		s[k.name] = median(perGraph)
		if decodeErr != nil {
			return fmt.Errorf("graph corpus: %w", decodeErr)
		}
	}
	for _, g := range graphs {
		events += g.NumEvents()
	}
	s["graph.events_per_graph"] = float64(events) / n
	if sym != nil {
		s["graph.canon_fast_share"] = float64(fast) / n
	}
	return nil
}

// qspinClients is the client set vsyncopt verifies a qspinlock
// candidate against.
func qspinClients(alg *locks.Algorithm, spec *vprog.BarrierSpec, threads int) []*vprog.Program {
	return []*vprog.Program{
		harness.MutexClient(alg, spec, threads, 1),
		harness.QspinQueuePathLitmus(spec),
		harness.MutexClient(alg, spec, 3, 1),
	}
}

// optPass is the traced run of the push-button optimization, configured
// as vsyncopt -lock qspin -threads 3 -par 1 configures it. The
// optimizer keeps the statistics of its AMC runs to itself, so the core
// layer reports only the time the relaxation steps spent verifying and
// what the runtime did meanwhile.
func optPass(h *bench, tr *tracer) (sample, error) {
	root := tr.start("workload", -1)
	defer tr.end(root)
	s := sample{}
	alg := locks.ByName("qspin")
	initial := alg.DefaultSpec().AllSC()

	clients := qspinClients(alg, initial, 3)
	s["vprog.symspec_s"] = tr.timed("vprog.symspec", root, func() {
		for _, p := range clients {
			p.SymSpec()
		}
	}).Seconds()
	s["vprog.fingerprint_s"] = tr.timed("vprog.fingerprint", root, func() {
		for _, p := range clients {
			p.Fingerprint128()
		}
	}).Seconds()

	tm := newTracedModel(mm.WMM)
	var buildNs, built atomic.Int64
	opt := &optimize.Optimizer{
		Model: tm,
		Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
			t0 := time.Now()
			ps := qspinClients(alg, spec, 3)
			buildNs.Add(int64(time.Since(t0)))
			built.Add(int64(len(ps)))
			return ps
		},
		Passes:        1,
		Parallelism:   1,
		WorkersPerRun: 1,
		Speculate:     true,
		Cache:         optimize.NewCache(),
	}
	var res *optimize.Result
	var err error
	run := tr.start("optimize.run", root)
	rt := measureRT(func() { res, err = opt.RunCtx(context.Background(), initial) })
	tr.end(run)
	if err != nil {
		return nil, fmt.Errorf("optimize qspin: %w", err)
	}
	build := time.Duration(buildNs.Load())
	tr.aggregate("mm.consistent", run, tm.calls.Load(), tm.busy())
	tr.aggregate("vprog.build", run, built.Load(), build)

	c := res.Counts()
	got := fmt.Sprintf("rlx=%d acq=%d rel=%d acqrel=%d sc=%d removed=%d", c.Rlx, c.Acq, c.Rel, c.AcqRel, c.SC, c.Removed)
	if want := h.exp.Optimize["qspin"]; got != want {
		return nil, fmt.Errorf("optimize qspin: final modes %q, want %q", got, want)
	}

	s["vprog.build_s"] = build.Seconds()
	s["vprog.programs_built"] = float64(built.Load())
	var verifying time.Duration
	for _, st := range res.Steps {
		verifying += st.Duration
	}
	s["core.run_s"] = verifying.Seconds()
	s["core.gc_cpu_share"] = rt.gcCPUShare
	s["core.heap_peak_mb"] = rt.heapPeakMB
	s["optimize.total_s"] = res.Duration.Seconds()
	s["optimize.self_s"] = tr.self(run, 1).Seconds()
	s["optimize.verifications"] = float64(res.Verifications)
	s["optimize.cache_lookups"] = float64(res.CacheLookups)
	s["optimize.cache_hit_share"] = share(float64(res.CacheHits), float64(res.CacheLookups))
	s["optimize.canceled_runs"] = float64(res.Pool.Canceled)
	mmMetrics(s, tm)
	// The corpus mixes the graphs of three different programs, so there
	// is no one symmetry spec to canonicalize them under.
	return s, graphKernels(s, tr, root, tm, nil)
}

// suiteCell is one program of the default suite corpus with the verdict
// store keys of its cells, one per model.
type suiteCell struct {
	name string
	prog *vprog.Program
	keys []store.Key
}

// suiteCorpus rebuilds, from the public constructors, the programs
// vsync.VerifyMatrix covers by default: every verifiable lock's client,
// every verifiable structure and both strengths of every litmus test,
// at two threads. It exists to time program construction, fingerprints
// and symmetry validation from outside; suitePass checks it against the
// matrix's own cell count and store hits.
func suiteCorpus(tr *tracer, parent int, s sample) []suiteCell {
	var cells []suiteCell
	var specs []*vprog.BarrierSpec
	s["vprog.build_s"] = tr.timed("vprog.build", parent, func() {
		for _, alg := range locks.Verifiable() {
			spec := alg.DefaultSpec()
			cells = append(cells, suiteCell{prog: harness.MutexClient(alg, spec, 2, 1)})
			specs = append(specs, spec)
		}
		for _, w := range wl.Verifiable() {
			if lo, hi := w.Threads(); lo > 2 || (hi > 0 && hi < 2) {
				continue
			}
			spec := w.DefaultSpec()
			cells = append(cells, suiteCell{prog: wl.Program(w, spec, 2)})
			specs = append(specs, spec)
		}
		for _, name := range harness.LitmusNames() {
			for _, strong := range []bool{false, true} {
				label := "litmus/" + name + "/weak"
				if strong {
					label = "litmus/" + name + "/strong"
				}
				cells = append(cells, suiteCell{name: label, prog: harness.Litmus(name, strong)})
				specs = append(specs, nil)
			}
		}
	}).Seconds()
	s["vprog.symspec_s"] = tr.timed("vprog.symspec", parent, func() {
		for i := range cells {
			cells[i].prog.SymSpec()
		}
	}).Seconds()
	s["vprog.fingerprint_s"] = tr.timed("vprog.fingerprint", parent, func() {
		for i := range cells {
			c := &cells[i]
			if c.name == "" {
				c.name = c.prog.Name
			}
			var specFP graph.Hash128
			if specs[i] != nil {
				specFP = specs[i].Fingerprint128()
			}
			progFP := c.prog.Fingerprint128()
			for _, m := range mm.All() {
				c.keys = append(c.keys, store.Key{Model: m.Name(), Spec: specFP, Prog: progFP})
			}
		}
	}).Seconds()
	s["vprog.programs_built"] = float64(len(cells))
	return cells
}

// suitePass is the traced run of the verification matrix, against a
// fresh store (cold) or the set-up's warm store, configured as
// vsyncsuite -par 2 configures it. VerifyMatrix resolves its models by
// name, so no traced model can be put under it: the mm and graph layers
// report 0 here, and core reports the summed AMC time of the cells.
func suitePass(h *bench, tr *tracer, warm bool) (sample, error) {
	root := tr.start("workload", -1)
	defer tr.end(root)
	s := sample{}
	corpus := suiteCorpus(tr, root, s)

	scratch, err := os.MkdirTemp(h.work, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	path := filepath.Join(scratch, "v.log")
	if warm {
		path = h.env.warm
	}

	var st *store.Session
	open := tr.timed("store.open", root, func() { st, err = vsync.OpenStore(path) })
	if err != nil {
		return nil, err
	}
	defer st.Close() // for the error paths; the timed Close below comes first otherwise
	loaded := st.Stats().Loaded
	if warm && loaded < h.filler {
		return nil, fmt.Errorf("warm store: %d records loaded, %d filler records were written", loaded, h.filler)
	}

	var res *vsync.MatrixResult
	matrix := tr.start("vsync.matrix", root)
	rt := measureRT(func() {
		res = vsync.VerifyMatrix(vsync.MatrixConfig{MaxThreads: 2, Iters: 1, Parallelism: 2, WorkersPerRun: 1, Store: st})
	})
	tr.end(matrix)
	var amc time.Duration
	for i := range res.Cells {
		c := &res.Cells[i]
		amc += c.Duration
		label := c.Verdict.String()
		if c.Litmus {
			label = c.Verdict.LitmusLabel()
		}
		if want := h.exp.verdict(c.Program, c.Model); label != want {
			return nil, fmt.Errorf("matrix: %s under %s is %q, want %q", c.Program, c.Model, label, want)
		}
	}
	tr.aggregate("core.run", matrix, int64(res.Misses), amc)
	if len(res.Cells) != h.exp.suiteCells() || (warm && res.Hits != len(res.Cells)) || (!warm && res.Hits != 0) {
		return nil, fmt.Errorf("matrix: %d cells, %d store hits (warm=%v); the expectations describe %d cells", len(res.Cells), res.Hits, warm, h.exp.suiteCells())
	}
	stats := st.Stats()

	// Every key of the rebuilt corpus must now be in the store, or the
	// corpus above is not the one the matrix ran.
	const lookupRounds = 50
	hits := 0
	t0 := time.Now()
	for r := 0; r < lookupRounds; r++ {
		for i := range corpus {
			for _, k := range corpus[i].keys {
				if _, ok := st.Lookup(k); ok {
					hits++
				}
			}
		}
	}
	lookups := lookupRounds * len(res.Cells)
	s["store.lookup_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(lookups)
	if hits != lookups {
		return nil, fmt.Errorf("store: %d of %d lookups of the rebuilt suite corpus hit; it has drifted from the matrix", hits, lookups)
	}
	rng := rand.New(rand.NewSource(h.seed))
	randomKey := func() store.Key {
		return store.Key{Model: "wmm", Spec: graph.Hash128{rng.Uint64(), rng.Uint64()}, Prog: graph.Hash128{rng.Uint64(), rng.Uint64()}}
	}
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		st.Lookup(randomKey())
	}
	s["store.lookup_miss_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(lookups)
	if fi, err := os.Stat(path); err == nil {
		s["store.log_bytes_per_record"] = share(float64(fi.Size()), float64(st.Len()))
	}
	flush := tr.timed("store.flush", root, func() { err = st.Close() })
	if err != nil {
		return nil, err
	}
	if err := storeKernels(s, tr, root, scratch, randomKey); err != nil {
		return nil, err
	}

	s["store.open_s"] = open.Seconds()
	s["store.open_records_per_s"] = share(float64(loaded), open.Seconds())
	s["store.flush_s"] = flush.Seconds()
	if res.Misses > 0 { // a matrix served from the store does no AMC work to account for
		s["core.run_s"] = amc.Seconds()
		s["core.gc_cpu_share"] = rt.gcCPUShare
		s["core.heap_peak_mb"] = rt.heapPeakMB
	}
	s["vsync.matrix_s"] = res.Duration.Seconds()
	s["vsync.cells"] = float64(len(res.Cells))
	s["vsync.amc_runs"] = float64(res.Misses)
	s["vsync.deduped"] = float64(res.Deduped)
	s["vsync.hit_share"] = res.HitRate()
	// The matrix's own time: what is left of its wall once the AMC runs
	// (spread over its two pool slots) and the store calls it made, at
	// their measured unit costs, are taken out.
	storeNs := float64(stats.Appended)*s["store.put_ns"] + float64(stats.Hits)*s["store.lookup_hit_ns"] + float64(stats.Misses)*s["store.lookup_miss_ns"]
	s["vsync.self_s"] = res.Duration.Seconds() - amc.Seconds()/2 - storeNs/1e9
	return s, nil
}

// storeKernels times the store's write path and its remote tier on
// scratch logs: appends, the closing sync, and GET and batched PUT
// round trips against the verdict service on an in-process server.
func storeKernels(s sample, tr *tracer, parent int, dir string, randomKey func() store.Key) error {
	id := tr.start("store.kernels", parent)
	defer tr.end(id)
	const puts, gets, batch = 2000, 50, 16

	served, err := store.OpenShared(filepath.Join(dir, "served.log"), nil)
	if err != nil {
		return err
	}
	defer served.Close()
	keys := make([]store.Key, puts)
	for i := range keys {
		keys[i] = randomKey()
	}
	t0 := time.Now()
	for i, k := range keys {
		if err := served.Put(k, core.OK, fmt.Sprintf("kernel/%d", i)); err != nil {
			return err
		}
	}
	s["store.put_ns"] = float64(time.Since(t0).Nanoseconds()) / puts

	srv := httptest.NewServer(store.NewHandler(served))
	defer srv.Close()
	client, err := store.OpenShared(filepath.Join(dir, "client.log"), &store.Options{
		Remote: srv.URL,
		Logf:   func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	defer client.Close()
	t0 = time.Now()
	for _, k := range keys[:gets] {
		client.Lookup(k) // local miss, remote hit, promoted into the local log
	}
	s["store.remote_get_s"] = time.Since(t0).Seconds() / gets
	t0 = time.Now()
	for i := 0; i < batch; i++ {
		if err := client.Put(randomKey(), core.OK, fmt.Sprintf("batch/%d", i)); err != nil {
			return err
		}
	}
	client.Flush()
	s["store.remote_put_batch_s"] = time.Since(t0).Seconds()
	cs := client.Stats()
	if err := client.Close(); err != nil {
		return err
	}
	if cs.RemoteHits != gets || cs.RemotePuts != batch || cs.RemoteFailures != 0 {
		return fmt.Errorf("store: remote tier served %d of %d lookups, took %d of %d records, failed %d calls",
			cs.RemoteHits, gets, cs.RemotePuts, batch, cs.RemoteFailures)
	}
	return nil
}
