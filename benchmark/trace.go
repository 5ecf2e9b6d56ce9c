package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mm"
)

// span is one timed interval at a layer boundary. A call too hot to
// record one by one (mm.consistent) is stored as a single aggregated
// span per parent: Count calls that were busy for BusyS in total.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"` // since the trace began
	EndS     float64 `json:"end_s"`
	Count    int64   `json:"count,omitempty"`
	BusyS    float64 `json:"busy_s,omitempty"`
}

// tracer keeps the spans of one traced run in memory; write stores them
// when the run has ended. The spans are taken from outside, around the
// calls the benchmark makes into each layer's public functions.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartS: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndS = time.Since(t.t0).Seconds()
	return time.Duration((s.EndS - s.StartS) * float64(time.Second))
}

// timed records fn as a child span of parent and returns how long it took.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	fn()
	return t.end(id)
}

// aggregate records count calls, busy for busy in total, that happened
// somewhere inside parent's interval.
func (t *tracer) aggregate(name string, parent int, count int64, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Workload: t.workload, Name: name,
		StartS: p.StartS, EndS: p.EndS, Count: count, BusyS: busy.Seconds()})
}

// self is a span's duration minus the part of it its children cover.
// Children that ran on width workers at once cover 1/width of their
// summed time.
func (t *tracer) self(id, width int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := 0.0
	for _, s := range t.spans {
		if s.Parent != id {
			continue
		}
		if s.Count > 0 {
			covered += s.BusyS
		} else {
			covered += s.EndS - s.StartS
		}
	}
	total := t.spans[id].EndS - t.spans[id].StartS
	return time.Duration((total - covered/float64(max(width, 1))) * float64(time.Second))
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedModel wraps a memory model from outside: same name, every
// Consistent call counted and timed, and every k-th graph kept (encoded,
// so the explorer's own graphs are not touched) as the corpus the graph
// kernels are replayed over. Safe for the explorer's concurrent workers.
type tracedModel struct {
	inner   mm.Model
	calls   atomic.Int64
	rejects atomic.Int64
	busyNs  atomic.Int64
	every   atomic.Int64 // sample every k-th call

	mu      sync.Mutex
	scratch []byte
	corpus  [][]byte
}

// corpusMax bounds the corpus: on reaching it every other sample is
// dropped and the sampling interval doubles, so a run of any length
// ends with corpusMax/2..corpusMax graphs spread over the whole run.
const corpusMax = 4000

func newTracedModel(inner mm.Model) *tracedModel {
	m := &tracedModel{inner: inner}
	m.every.Store(48)
	return m
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Consistent(g *graph.Graph) bool {
	t0 := time.Now()
	ok := m.inner.Consistent(g)
	m.busyNs.Add(int64(time.Since(t0)))
	if !ok {
		m.rejects.Add(1)
	}
	if n := m.calls.Add(1); n%m.every.Load() == 0 {
		m.keep(g)
	}
	return ok
}

func (m *tracedModel) keep(g *graph.Graph) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.scratch = graph.AppendGraph(m.scratch[:0], g)
	m.corpus = append(m.corpus, bytes.Clone(m.scratch))
	if len(m.corpus) >= corpusMax {
		half := m.corpus[:0]
		for i := 1; i < len(m.corpus); i += 2 {
			half = append(half, m.corpus[i])
		}
		m.corpus = half
		m.every.Store(m.every.Load() * 2)
	}
}

func (m *tracedModel) busy() time.Duration { return time.Duration(m.busyNs.Load()) }

// rtDelta is what the Go runtime did during one measured call.
type rtDelta struct {
	allocs, bytes float64
	gcCPUShare    float64 // GC CPU time over all CPU time the process used
	heapPeakMB    float64 // highest sampled size of live and unswept heap objects
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRT() [5]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [5]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// measureRT runs fn between two runtime snapshots. The CPU classes are
// refreshed by the collector, so a collection is forced on both sides;
// that also starts every measured call from the same heap.
func measureRT(fn func()) rtDelta {
	runtime.GC()
	before := readRT()
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var hi uint64
		for {
			metrics.Read(heap)
			hi = max(hi, heap[0].Value.Uint64())
			select {
			case <-stop:
				peak <- float64(hi) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	d := rtDelta{heapPeakMB: <-peak}
	runtime.GC()
	after := readRT()
	d.allocs = after[0] - before[0]
	d.bytes = after[1] - before[1]
	used := (after[3] - before[3]) - (after[4] - before[4])
	d.gcCPUShare = share(after[2]-before[2], used)
	return d
}
