package bench

import (
	"fmt"
	"strings"

	"repro/internal/locks"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/vprog"
	"repro/internal/wmsim"
)

// MCSImpl is one implementation in the Fig. 27 comparison.
type MCSImpl struct {
	Label string
	Alg   *locks.Algorithm
	Spec  func() *vprog.BarrierSpec
}

// MCSImpls returns the four MCS implementations of Fig. 27:
//
//   - CertiKOS: the verified kernel's lock, sc-only operations;
//   - ck: Concurrency Kit's fence-based style (explicit acquire/release
//     fences around relaxed operations);
//   - DPDK: the fixed rte_mcslock barrier assignment (§3.1);
//   - own impl.: our VSync-optimized MCS.
func MCSImpls() []MCSImpl {
	certikos := locks.ByName("certikosmcs")
	dpdk := locks.ByName("dpdkmcs")
	mcs := locks.ByName("mcs")
	ck := func() *vprog.BarrierSpec {
		// Fence-based style on the certikos skeleton: relaxed accesses
		// ordered by explicit fences.
		s := certikos.DefaultSpec()
		s.Set("certikos.xchg_tail", vprog.AcqRel)
		s.Set("certikos.set_prev_next", vprog.Rlx)
		s.Set("certikos.await_locked", vprog.Rlx)
		s.Set("certikos.post_await_fence", vprog.Acq)
		s.Set("certikos.read_next", vprog.Rlx)
		s.Set("certikos.await_next", vprog.Rlx)
		s.Set("certikos.pre_handoff_fence", vprog.Rel)
		s.Set("certikos.handoff", vprog.Rlx)
		return s
	}
	return []MCSImpl{
		{Label: "CertiKOS", Alg: certikos, Spec: func() *vprog.BarrierSpec { return certikos.DefaultSpec().AllSC() }},
		{Label: "ck", Alg: certikos, Spec: ck},
		{Label: "DPDK", Alg: dpdk, Spec: dpdk.DefaultSpec},
		{Label: "own impl.", Alg: mcs, Spec: mcs.DefaultSpec},
	}
}

// figSeed is the simulator seed of Fig. 27 and the cs/es sweeps.
func figSeed(threads, run int) uint64 {
	return uint64(run+17)*99_991 ^ uint64(threads)<<24
}

// Fig27 compares the MCS implementations across thread counts on one
// machine: median throughput (M iterations/s) per implementation.
func Fig27(mc *wmsim.Machine, threads []int, runs int, cycles uint64) string {
	impls := MCSImpls()
	headers := []string{"threads"}
	for _, im := range impls {
		headers = append(headers, im.Label)
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 27: MCS lock implementations on %s (median throughput, M iters/s)", mc.Name),
		headers...)
	for _, th := range threads {
		if th > mc.Cores {
			continue
		}
		row := []any{th}
		for _, im := range impls {
			var xs []float64
			for run := 1; run <= runs; run++ {
				r := runSpec(mc, im.Alg, im.Spec(), th, run, figSeed(th, run), cycles, 1, 0)
				xs = append(xs, r.Throughput/1e6)
			}
			row = append(row, stats.Summarize(xs).Median)
		}
		t.Add(row...)
	}
	return t.String()
}

// CSSweep measures the §4.2.2 critical-section-size finding: as
// cs_size grows, the barrier-optimization speedup shrinks and all locks
// converge. It returns (report, speedup per cs size for the chosen
// lock).
func CSSweep(mc *wmsim.Machine, algName string, threads int, sizes []int, cycles uint64) (string, map[int]float64) {
	alg := locks.ByName(algName)
	t := report.NewTable(
		fmt.Sprintf("critical-section size sweep: %s on %s, %d threads", algName, mc.Name, threads),
		"cs_size", "opt (cs/s)", "seq (cs/s)", "speedup")
	out := map[int]float64{}
	for _, size := range sizes {
		opt := runSpec(mc, alg, alg.DefaultSpec(), threads, 1, figSeed(threads, 1), cycles, size, 0)
		seq := runSpec(mc, alg, alg.DefaultSpec().AllSC(), threads, 1, figSeed(threads, 1), cycles, size, 0)
		sp := 0.0
		if seq.Throughput > 0 {
			sp = opt.Throughput/seq.Throughput - 1
		}
		out[size] = sp
		t.Add(size, opt.Throughput, seq.Throughput, fmt.Sprintf("%.4f", sp))
	}
	return t.String(), out
}

// ESSweep measures the companion finding: work outside the critical
// section does not change the speedup materially.
func ESSweep(mc *wmsim.Machine, algName string, threads int, sizes []int, cycles uint64) (string, map[int]float64) {
	alg := locks.ByName(algName)
	t := report.NewTable(
		fmt.Sprintf("outside-section size sweep: %s on %s, %d threads", algName, mc.Name, threads),
		"es_size", "opt (cs/s)", "seq (cs/s)", "speedup")
	out := map[int]float64{}
	for _, size := range sizes {
		opt := runSpec(mc, alg, alg.DefaultSpec(), threads, 1, figSeed(threads, 1), cycles, 1, size)
		seq := runSpec(mc, alg, alg.DefaultSpec().AllSC(), threads, 1, figSeed(threads, 1), cycles, 1, size)
		sp := 0.0
		if seq.Throughput > 0 {
			sp = opt.Throughput/seq.Throughput - 1
		}
		out[size] = sp
		t.Add(size, opt.Throughput, seq.Throughput, fmt.Sprintf("%.4f", sp))
	}
	return t.String(), out
}

// Fig25 and Fig26 are the architecture heat maps.
func Fig25(speedups []Speedup, threads []int) string {
	return FigHeatmap("Fig. 25: speedups observed on ARMv8 target", speedups, "ARMv8", threads)
}

// Fig26 is the x86 heat map.
func Fig26(speedups []Speedup, threads []int) string {
	return FigHeatmap("Fig. 26: speedups observed on x86_64 target", speedups, "x86_64", threads)
}

// Table1 reproduces the qspinlock barrier-count table: the historical
// Linux rows (from the paper) plus a live row computed from the
// optimizer's resulting spec.
func Table1(optCounts vprog.ModeCounts, optTime string) string {
	t := report.NewTable("Table 1: barrier optimization results for Linux's qspinlock",
		"version", "acq", "rel", "sc", "time", "correctness")
	rows := []struct {
		v          string
		a, r, s    int
		time, corr string
	}{
		{"Linux 4.4", 3, 6, 6, "2015/09/11", "Not verified"},
		{"Linux 4.5", 6, 2, 1, "2015/11/09", "Barrier bug, fixed in 4.16"},
		{"Linux 4.8", 6, 3, 0, "2016/06/03", "Barrier bug, fixed in 4.16"},
		{"Linux 4.16", 6, 4, 0, "2018/02/13", "Not verified"},
		{"Linux 5.6", 6, 2, 1, "2020/01/07", "Not verified"},
	}
	for _, r := range rows {
		t.Add(r.v, r.a, r.r, r.s, r.time, r.corr)
	}
	t.Add("VSYNC (paper)", 7, 2, 1, "11 minutes", "VSYNC-verified")
	t.Add("this repro", optCounts.Acq, optCounts.Rel, optCounts.SC, optTime, "AMC-verified (WMM)")
	return t.String()
}

// CampaignReport runs a campaign and renders every §4.2 artifact in
// one string — used by cmd/vsyncbench and the benchmark harness.
func CampaignReport(cfg Config) string {
	recs := RunCampaign(cfg)
	groups := GroupRecords(recs)
	kept, dropped := StabilityFilter(groups, 1.2)
	speedups := Speedups(kept)

	var b strings.Builder
	b.WriteString(Table2(recs, 16))
	b.WriteByte('\n')
	b.WriteString(Table3(groups))
	b.WriteByte('\n')
	b.WriteString(Table4(groups))
	fmt.Fprintf(&b, "\n(filtered out %d of %d groups above stability 1.2)\n\n", len(dropped), len(groups))
	b.WriteString(Table5(speedups))
	b.WriteByte('\n')
	b.WriteString(Fig23(groups))
	b.WriteByte('\n')
	b.WriteString(Fig24(speedups))
	b.WriteByte('\n')
	b.WriteString(Fig25(speedups, cfg.Threads))
	b.WriteByte('\n')
	b.WriteString(Fig26(speedups, cfg.Threads))
	return b.String()
}
