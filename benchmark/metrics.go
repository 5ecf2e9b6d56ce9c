package main

import (
	"math"
	"slices"
	"time"

	"repro/internal/stats"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json at
// the root of the repository lists the same names, units and directions;
// TestBenchmarkJSONMatches keeps the two from drifting apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the tools waits for. failed_share is
// carried by the attempted/failed keys of every result line rather than
// listed here, because a metric that is 0 at the baseline cannot be
// bounded as a share of itself.
var endToEnd = []metricDef{
	{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output; the prefix is the module name.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "process.startup_s", Unit: "s", Better: "lower"},
	{Name: "process.cpu_s", Unit: "s", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.wall_p90_s", Unit: "s", Better: "lower"},
	{Name: "process.steal_share", Unit: "share", Better: "lower"},

	{Name: "vprog.build_s", Unit: "s", Better: "lower"},
	{Name: "vprog.fingerprint_s", Unit: "s", Better: "lower"},
	{Name: "vprog.symspec_s", Unit: "s", Better: "lower"},
	{Name: "vprog.programs_built", Unit: "count", Better: "lower"},

	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.states_popped", Unit: "count", Better: "lower"},
	{Name: "core.executions", Unit: "count", Better: "lower"},
	{Name: "core.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.useful_share", Unit: "share", Better: "higher"},
	{Name: "core.inconsistent_share", Unit: "share", Better: "lower"},
	{Name: "core.duplicate_share", Unit: "share", Better: "lower"},
	{Name: "core.revisits", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_state", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "core.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "core.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "core.steals", Unit: "count", Better: "lower"},
	{Name: "core.shard_contention", Unit: "count", Better: "lower"},
	{Name: "core.worker_balance", Unit: "share", Better: "higher"},
	{Name: "core.par_speedup", Unit: "x", Better: "higher"},

	{Name: "mm.consistent_calls", Unit: "count", Better: "lower"},
	{Name: "mm.consistent_busy_s", Unit: "s", Better: "lower"},
	{Name: "mm.consistent_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "mm.reject_share", Unit: "share", Better: "lower"},

	{Name: "graph.events_per_graph", Unit: "count", Better: "lower"},
	{Name: "graph.build_rels_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.canonicalize_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.canon_fast_share", Unit: "share", Better: "higher"},
	{Name: "graph.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.decode_ns", Unit: "ns", Better: "lower"},

	{Name: "optimize.total_s", Unit: "s", Better: "lower"},
	{Name: "optimize.self_s", Unit: "s", Better: "lower"},
	{Name: "optimize.verifications", Unit: "count", Better: "lower"},
	{Name: "optimize.cache_lookups", Unit: "count", Better: "lower"},
	{Name: "optimize.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "optimize.canceled_runs", Unit: "count", Better: "lower"},

	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.open_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "store.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "store.put_ns", Unit: "ns", Better: "lower"},
	{Name: "store.flush_s", Unit: "s", Better: "lower"},
	{Name: "store.log_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.remote_get_s", Unit: "s", Better: "lower"},
	{Name: "store.remote_put_batch_s", Unit: "s", Better: "lower"},

	{Name: "vsync.matrix_s", Unit: "s", Better: "lower"},
	{Name: "vsync.self_s", Unit: "s", Better: "lower"},
	{Name: "vsync.cells", Unit: "count", Better: "higher"},
	{Name: "vsync.amc_runs", Unit: "count", Better: "lower"},
	{Name: "vsync.deduped", Unit: "count", Better: "higher"},
	{Name: "vsync.hit_share", Unit: "share", Better: "higher"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sample is one pass's numbers by metric name.
type sample map[string]float64

// pack renders the numbers of s that defs names, 0 for the absent ones.
func pack(defs []metricDef, s sample) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: s[d.Name], Unit: d.Unit}
	}
	return out
}

// medianOf reduces several passes to one sample, metric by metric.
func medianOf(passes []sample) sample {
	byName := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			byName[k] = append(byName[k], v)
		}
	}
	out := sample{}
	for k, vs := range byName {
		out[k] = median(vs)
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return stats.Median(slices.Sorted(slices.Values(vs)))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule
// the driver applies, so -compare and the driver agree on a spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
