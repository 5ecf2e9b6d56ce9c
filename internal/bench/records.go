// Package bench implements the paper's optimized-code evaluation
// (§4.2): the microbenchmark campaign of Listing 1 — every thread
// repeatedly acquires a lock, increments a shared counter, releases —
// across two simulated platforms, 18 lock algorithms, the sc-only and
// VSync-optimized barrier variants, the paper's thread counts, and
// repeated runs; plus the record grouping, stability filtering, speedup
// computation and table/figure emitters that turn raw records into
// Tables 2–5 and Figs. 23–27.
package bench

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/stats"
	"repro/internal/vprog"
	"repro/internal/wmsim"
)

// Record is one raw measurement — the columns of Table 2.
type Record struct {
	Arch       string
	Algorithm  string
	Variant    string // "opt" (VSync-optimized) or "seq" (sc-only)
	Threads    int
	Run        int
	Count      uint64  // critical sections completed
	Duration   float64 // seconds (virtual)
	Throughput float64 // Count / Duration
}

// Variants of each algorithm measured by the campaign.
const (
	VariantOpt = "opt"
	VariantSeq = "seq"
)

// Config parameterizes a campaign.
type Config struct {
	Machines   []*wmsim.Machine
	Algorithms []*locks.Algorithm
	Threads    []int
	Runs       int
	// Cycles is the virtual duration of each run (the paper runs 30 s
	// wall-clock; we run a fixed virtual window).
	Cycles uint64
	// CSSize / ESSize are the §4.2.2 knobs: cache lines touched inside /
	// outside the critical section.
	CSSize, ESSize int
}

// PaperThreads is the paper's contention ladder (§4.2.1). The 127-case
// runs only on platforms with 128 cores, as in the paper.
var PaperThreads = []int{1, 2, 4, 8, 16, 23, 31, 63, 95, 127}

// Default returns the full campaign configuration.
func Default() Config {
	return Config{
		Machines:   wmsim.Machines(),
		Algorithms: locks.Benchmarkable(),
		Threads:    PaperThreads,
		Runs:       5,
		Cycles:     200_000,
		CSSize:     1,
		ESSize:     0,
	}
}

// Quick returns a reduced campaign for tests and default bench runs.
func Quick() Config {
	c := Default()
	c.Threads = []int{1, 2, 8, 31, 95}
	c.Runs = 3
	c.Cycles = 120_000
	return c
}

// RunOne executes a single microbenchmark run and returns its record.
func RunOne(mc *wmsim.Machine, alg *locks.Algorithm, variant string,
	threads, run int, cfg Config) Record {

	spec := alg.DefaultSpec()
	if variant == VariantSeq {
		spec = spec.AllSC()
	}
	seed := uint64(run+1)*1_000_003 ^ uint64(threads)<<32 ^ uint64(len(alg.Name))
	r := runSpec(mc, alg, spec, threads, run, seed, cfg.Cycles, cfg.CSSize, cfg.ESSize)
	r.Variant = variant
	return r
}

// runSpec is the Listing-1 driver every §4.2 measurement runs: each
// thread acquires the lock, increments csSize shared lines, releases,
// then touches esSize private lines, for cycles of virtual time under
// the simulator's seed. The record's Variant is the caller's to set.
func runSpec(mc *wmsim.Machine, alg *locks.Algorithm, spec *vprog.BarrierSpec,
	threads, run int, seed, cycles uint64, csSize, esSize int) Record {

	sim := wmsim.NewSim(mc, threads, cycles, seed)
	env := sim.Env()
	lk := alg.New(env, spec, threads)

	// Shared cache lines touched inside the critical section.
	cs := make([]*vprog.Var, csSize)
	for i := range cs {
		cs[i] = env.Var(fmt.Sprintf("bench.cs.%d", i), 0)
	}
	// Private lines touched outside the critical section.
	es := make([][]*vprog.Var, threads)
	for t := range es {
		es[t] = make([]*vprog.Var, esSize)
		for j := range es[t] {
			es[t][j] = env.Var(fmt.Sprintf("bench.es.%d.%d", t, j), 0)
		}
	}

	counts, elapsed := sim.Run(func(m vprog.Mem, tid int, done func()) {
		tok := lk.Acquire(m)
		for _, v := range cs {
			m.Store(v, m.Load(v, vprog.Rlx)+1, vprog.Rlx)
		}
		lk.Release(m, tok)
		for _, v := range es[tid] {
			m.Store(v, m.Load(v, vprog.Rlx)+1, vprog.Rlx)
		}
		done()
	})

	var total uint64
	for _, c := range counts {
		total += c
	}
	dur := float64(elapsed) / (mc.FreqGHz * 1e9)
	r := Record{Arch: mc.Name, Algorithm: alg.Name, Threads: threads, Run: run,
		Count: total, Duration: dur}
	if dur > 0 {
		r.Throughput = float64(total) / dur
	}
	return r
}

// RunCampaign executes the full cartesian product of the configuration
// and returns the raw records (Table 2).
func RunCampaign(cfg Config) []Record {
	var out []Record
	for _, mc := range cfg.Machines {
		for _, alg := range cfg.Algorithms {
			for _, variant := range []string{VariantOpt, VariantSeq} {
				for _, th := range cfg.Threads {
					if th > mc.Cores {
						continue // the paper omits 127 threads on the 96-core box
					}
					for run := 1; run <= cfg.Runs; run++ {
						out = append(out, RunOne(mc, alg, variant, th, run, cfg))
					}
				}
			}
		}
	}
	return out
}

// GroupKey identifies one measurement group (Table 3 row).
type GroupKey struct {
	Arch      string
	Algorithm string
	Variant   string
	Threads   int
}

// Group is a summarized measurement group.
type Group struct {
	GroupKey
	stats.Summary // over throughput
}

// GroupRecords groups raw records by (arch, algorithm, variant,
// threads) and summarizes each group's throughput — Table 3.
func GroupRecords(recs []Record) []Group {
	byKey := map[GroupKey][]float64{}
	var order []GroupKey
	for _, r := range recs {
		k := GroupKey{r.Arch, r.Algorithm, r.Variant, r.Threads}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r.Throughput)
	}
	out := make([]Group, 0, len(order))
	for _, k := range order {
		out = append(out, Group{GroupKey: k, Summary: stats.Summarize(byKey[k])})
	}
	return out
}

// StabilityFilter drops groups whose stability exceeds the threshold
// (the paper filters records above 1.2, §4.2.2).
func StabilityFilter(groups []Group, threshold float64) (kept, dropped []Group) {
	for _, g := range groups {
		if g.Stability <= threshold {
			kept = append(kept, g)
		} else {
			dropped = append(dropped, g)
		}
	}
	return
}

// Speedup is one VSync-optimized vs sc-only comparison.
type Speedup struct {
	Arch      string
	Algorithm string
	Threads   int
	Value     float64 // To/Ts - 1
}

// Speedups computes the paper's speedup metric To/Ts − 1 from grouped
// medians, pairing opt and seq groups with equal (arch, algorithm,
// threads). Groups missing their counterpart are skipped.
func Speedups(groups []Group) []Speedup {
	med := map[GroupKey]float64{}
	for _, g := range groups {
		med[g.GroupKey] = g.Median
	}
	var out []Speedup
	for _, g := range groups {
		if g.Variant != VariantOpt {
			continue
		}
		seqKey := g.GroupKey
		seqKey.Variant = VariantSeq
		ts, ok := med[seqKey]
		if !ok || ts == 0 {
			continue
		}
		out = append(out, Speedup{
			Arch: g.Arch, Algorithm: g.Algorithm, Threads: g.Threads,
			Value: g.Median/ts - 1,
		})
	}
	return out
}
