// Benchmark harness: one target per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each target
// regenerates its artifact and prints it once; the benchmark timings
// measure the cost of producing the artifact on this machine.
//
//	go test -bench=. -benchmem .
//	go test -bench=BenchmarkTable5 .
//
// Heavy experiments (the Table 1 qspinlock optimization) honor -short.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/native"
	"repro/internal/optimize"
	"repro/internal/vprog"
	"repro/internal/wmsim"
)

// campaign runs the §4.2 microbenchmark campaign once and shares the
// records across every table/figure benchmark.
var campaign struct {
	once     sync.Once
	cfg      bench.Config
	recs     []bench.Record
	groups   []bench.Group
	kept     []bench.Group
	dropped  []bench.Group
	speedups []bench.Speedup
}

func campaignData(b *testing.B) {
	campaign.once.Do(func() {
		campaign.cfg = bench.Quick()
		campaign.recs = bench.RunCampaign(campaign.cfg)
		campaign.groups = bench.GroupRecords(campaign.recs)
		campaign.kept, campaign.dropped = bench.StabilityFilter(campaign.groups, 1.2)
		campaign.speedups = bench.Speedups(campaign.kept)
	})
	if len(campaign.recs) == 0 {
		b.Fatal("campaign produced no records")
	}
}

var printOnce sync.Map

// emit prints an artifact once per process, however many times the
// benchmark loop runs.
func emit(name, artifact string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", artifact)
	}
}

// BenchmarkTable1_QspinlockOptimization regenerates Table 1: the
// push-button barrier optimization of the Linux qspinlock from the
// all-SC baseline, verified by AMC against the fast-path client, the
// queue-path litmus and the three-thread queue client (paper: 11
// minutes on GenMC; acq/rel/sc = 7/2/1).
func BenchmarkTable1_QspinlockOptimization(b *testing.B) {
	if testing.Short() {
		b.Skip("qspinlock optimization takes minutes")
	}
	alg := locks.ByName("qspin")
	for i := 0; i < b.N; i++ {
		opt := &optimize.Optimizer{
			Model: mm.WMM,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				return []*vprog.Program{
					harness.MutexClient(alg, spec, 2, 1),
					harness.QspinQueuePathLitmus(spec),
					harness.MutexClient(alg, spec, 3, 1),
				}
			},
			Parallelism: 1, // the paper-faithful sequential baseline
		}
		start := time.Now()
		res, err := opt.Run(alg.DefaultSpec().AllSC())
		if err != nil {
			b.Fatal(err)
		}
		emit("table1", bench.Table1(res.Counts(), time.Since(start).Round(time.Second).String())+
			"\n"+res.Report())
	}
}

// BenchmarkTable1_QspinlockOptimizationParallel is Table 1 on the
// parallel verification engine: client programs fan across GOMAXPROCS
// workers, candidate ladders race speculatively, and verdicts are
// memoized. The final spec is identical to the sequential run; the
// wall-clock difference (and the per-worker breakdown in the report) is
// the point.
func BenchmarkTable1_QspinlockOptimizationParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("qspinlock optimization takes minutes")
	}
	alg := locks.ByName("qspin")
	for i := 0; i < b.N; i++ {
		opt := &optimize.Optimizer{
			Model: mm.WMM,
			Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
				return []*vprog.Program{
					harness.MutexClient(alg, spec, 2, 1),
					harness.QspinQueuePathLitmus(spec),
					harness.MutexClient(alg, spec, 3, 1),
				}
			},
			Parallelism: 0, // GOMAXPROCS
			Speculate:   true,
			Cache:       optimize.NewCache(),
		}
		res, err := opt.Run(alg.DefaultSpec().AllSC())
		if err != nil {
			b.Fatal(err)
		}
		emit("table1par", bench.Table1(res.Counts(), res.Duration.Round(time.Second).String())+
			"\n"+res.Report())
	}
}

// BenchmarkTable2_RawRecords regenerates the raw record listing.
func BenchmarkTable2_RawRecords(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("table2", bench.Table2(campaign.recs, 16))
	}
}

// BenchmarkTable3_GroupedStats regenerates the grouped statistics.
func BenchmarkTable3_GroupedStats(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		out := bench.Table3(bench.GroupRecords(campaign.recs))
		emit("table3", out)
	}
}

// BenchmarkTable4_StabilityCategories regenerates the stability
// categorization.
func BenchmarkTable4_StabilityCategories(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("table4", bench.Table4(campaign.groups)+
			fmt.Sprintf("(filtered out %d of %d groups above stability 1.2)\n",
				len(campaign.dropped), len(campaign.groups)))
	}
}

// BenchmarkTable5_Speedups regenerates the per-lock speedup summary.
func BenchmarkTable5_Speedups(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		out := bench.Table5(bench.Speedups(campaign.kept))
		emit("table5", out)
	}
}

// BenchmarkFig23_StabilityDensity regenerates the stability densities.
func BenchmarkFig23_StabilityDensity(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("fig23", bench.Fig23(campaign.groups))
	}
}

// BenchmarkFig24_SpeedupDensity regenerates the speedup densities.
func BenchmarkFig24_SpeedupDensity(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("fig24", bench.Fig24(campaign.speedups))
	}
}

// BenchmarkFig25_HeatmapARM regenerates the ARMv8 speedup heat map.
func BenchmarkFig25_HeatmapARM(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("fig25", bench.Fig25(campaign.speedups, campaign.cfg.Threads))
	}
}

// BenchmarkFig26_HeatmapX86 regenerates the x86 speedup heat map.
func BenchmarkFig26_HeatmapX86(b *testing.B) {
	campaignData(b)
	for i := 0; i < b.N; i++ {
		emit("fig26", bench.Fig26(campaign.speedups, campaign.cfg.Threads))
	}
}

// BenchmarkFig27_MCSComparison regenerates the MCS implementation
// comparison (CertiKOS / ck / DPDK / own) on both platforms.
func BenchmarkFig27_MCSComparison(b *testing.B) {
	threads := []int{1, 2, 4, 8, 16, 31, 63}
	for i := 0; i < b.N; i++ {
		out := ""
		for _, mc := range wmsim.Machines() {
			out += bench.Fig27(mc, threads, 3, 100_000) + "\n"
		}
		emit("fig27", out)
	}
}

// BenchmarkCSSizeSweep regenerates the §4.2.2 critical-section-size
// finding (speedups shrink as the critical section grows).
func BenchmarkCSSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := ""
		for _, mc := range wmsim.Machines() {
			t, _ := bench.CSSweep(mc, "mcs", 1, []int{1, 4, 16, 64}, 120_000)
			out += t + "\n"
		}
		emit("cssweep", out)
	}
}

// BenchmarkESSizeSweep regenerates the companion finding (outside-
// section work does not change the speedup).
func BenchmarkESSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := ""
		for _, mc := range wmsim.Machines() {
			t, _ := bench.ESSweep(mc, "mcs", 8, []int{0, 4, 16}, 120_000)
			out += t + "\n"
		}
		emit("essweep", out)
	}
}

// BenchmarkStudyCases measures AMC's bug-finding speed on the §3 study
// cases (the DPDK hang and the Huawei lost update).
func BenchmarkStudyCases(b *testing.B) {
	cases := []struct {
		name string
		alg  string
		want core.Verdict
	}{
		{"dpdk", "dpdkmcs-buggy", core.ATViolation},
		{"huawei", "huaweimcs-buggy", core.SafetyViolation},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			alg := locks.ByName(c.alg)
			for i := 0; i < b.N; i++ {
				res := core.New(mm.WMM).Run(harness.MutexClient(alg, alg.DefaultSpec(), 2, 1))
				if res.Verdict != c.want {
					b.Fatalf("want %v, got %v", c.want, res)
				}
			}
		})
	}
}

// BenchmarkAMC measures verification throughput on representative
// locks (the cost of one push-button check). It is the profiling entry
// for the explorer's hot path:
//
//	go test -run '^$' -bench 'BenchmarkAMC$' -cpuprofile cpu.out .
//
// Wall time to a verdict is judged by benchmark/, not here.
func BenchmarkAMC(b *testing.B) {
	for _, name := range []string{"spin", "ttas", "ticket", "mcs", "clh", "qspin"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			alg := locks.ByName(name)
			p := harness.MutexClient(alg, alg.DefaultSpec(), 2, 1)
			graphs := 0
			for i := 0; i < b.N; i++ {
				res := core.New(mm.WMM).Run(p)
				if !res.Ok() {
					b.Fatal(res)
				}
				graphs += res.Stats.Popped
			}
			b.ReportMetric(float64(graphs)/b.Elapsed().Seconds(), "graphs/sec")
		})
	}
}

// BenchmarkAMCLitmus measures the checker on the litmus corpus — small
// explorations where fixed per-run overhead dominates.
func BenchmarkAMCLitmus(b *testing.B) {
	for _, name := range harness.LitmusNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := harness.Litmus(name, false)
			graphs := 0
			for i := 0; i < b.N; i++ {
				res := core.New(mm.WMM).Run(p)
				if res.Verdict == core.Error {
					b.Fatal(res)
				}
				graphs += res.Stats.Popped
			}
			b.ReportMetric(float64(graphs)/b.Elapsed().Seconds(), "graphs/sec")
		})
	}
}

// BenchmarkNativeLocks measures the real (sync/atomic) throughput of
// the verified locks under goroutine contention — the native companion
// to the simulated campaign.
func BenchmarkNativeLocks(b *testing.B) {
	for _, name := range []string{"spin", "ttas", "ticket", "mcs", "clh", "qspin", "mutex"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p := harness.MutexClient(locks.ByName(name), locks.ByName(name).DefaultSpec(), 4, 200)
			for i := 0; i < b.N; i++ {
				if err := native.RunProgram(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
