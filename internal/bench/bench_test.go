package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/locks"
	"repro/internal/stats"
	"repro/internal/wmsim"
)

// tinyConfig keeps unit tests fast while exercising every code path.
func tinyConfig() bench.Config {
	cfg := bench.Quick()
	cfg.Threads = []int{1, 2, 8}
	cfg.Runs = 3
	cfg.Cycles = 50_000
	cfg.Algorithms = []*locks.Algorithm{
		locks.ByName("spin"), locks.ByName("ttas"),
		locks.ByName("mcs"), locks.ByName("qspin"),
	}
	return cfg
}

func TestCampaignShape(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	// 2 machines × 4 locks × 2 variants × 3 thread counts × 3 runs.
	want := 2 * 4 * 2 * 3 * 3
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Count == 0 || r.Throughput <= 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
	}
	groups := bench.GroupRecords(recs)
	if len(groups) != want/cfg.Runs {
		t.Fatalf("got %d groups, want %d", len(groups), want/cfg.Runs)
	}
	for _, g := range groups {
		if g.N != cfg.Runs {
			t.Fatalf("group %+v has %d samples, want %d", g.GroupKey, g.N, cfg.Runs)
		}
		if g.Stability < 1.0 {
			t.Fatalf("stability below 1.0: %+v", g)
		}
	}
	speedups := bench.Speedups(groups)
	if len(speedups) != len(groups)/2 {
		t.Fatalf("got %d speedups, want %d", len(speedups), len(groups)/2)
	}
}

// TestSpeedupShape asserts the paper's qualitative results: optimized
// is at least as fast as sc-only at a single thread, and the x86
// single-thread speedups are the most pronounced.
func TestSpeedupShape(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	speedups := bench.Speedups(bench.GroupRecords(recs))
	var x86One, armOne []float64
	for _, s := range speedups {
		if s.Threads != 1 {
			continue
		}
		if s.Arch == "x86_64" {
			x86One = append(x86One, s.Value)
		} else {
			armOne = append(armOne, s.Value)
		}
	}
	if len(x86One) == 0 || len(armOne) == 0 {
		t.Fatal("missing single-thread speedups")
	}
	for _, v := range append(append([]float64{}, x86One...), armOne...) {
		if v < -0.05 {
			t.Errorf("optimized variant slower than sc-only at 1 thread: %.4f", v)
		}
	}
	sx := stats.Summarize(x86One)
	sa := stats.Summarize(armOne)
	if sx.Max <= sa.Max {
		t.Errorf("expected the most pronounced single-thread speedup on x86 (paper: up to 7x): x86 max %.3f vs arm max %.3f", sx.Max, sa.Max)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := tinyConfig()
	recs := bench.RunCampaign(cfg)
	groups := bench.GroupRecords(recs)
	speedups := bench.Speedups(groups)

	if s := bench.Table2(recs, 10); !strings.Contains(s, "throughput") {
		t.Error("Table 2 missing throughput column")
	}
	if s := bench.Table3(groups); !strings.Contains(s, "stability") {
		t.Error("Table 3 missing stability column")
	}
	if s := bench.Table4(groups); !strings.Contains(s, "Total") {
		t.Error("Table 4 missing total row")
	}
	if s := bench.Table5(speedups); !strings.Contains(s, "mcs") {
		t.Error("Table 5 missing mcs row")
	}
	if s := bench.Fig23(groups); !strings.Contains(s, "stability density") {
		t.Error("Fig 23 missing")
	}
	if s := bench.Fig24(speedups); !strings.Contains(s, "speedup density") {
		t.Error("Fig 24 missing")
	}
	if s := bench.Fig25(speedups, cfg.Threads); !strings.Contains(s, "ARMv8") {
		t.Error("Fig 25 missing")
	}
	if s := bench.Fig26(speedups, cfg.Threads); !strings.Contains(s, "x86_64") {
		t.Error("Fig 26 missing")
	}
}

func TestFig27Shape(t *testing.T) {
	out := bench.Fig27(wmsim.ARMv8(), []int{1, 2, 8}, 2, 40_000)
	for _, label := range []string{"CertiKOS", "ck", "DPDK", "own impl."} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig 27 missing %s column", label)
		}
	}
}

// TestCSSweepShape asserts the §4.2.2 finding: growing critical
// sections shrink the barrier-optimization speedup.
func TestCSSweepShape(t *testing.T) {
	_, sp := bench.CSSweep(wmsim.X86(), "spin", 1, []int{1, 16, 64}, 60_000)
	if sp[1] <= sp[64] {
		t.Errorf("speedup should shrink with cs size: cs=1 %.4f vs cs=64 %.4f", sp[1], sp[64])
	}
}

// TestESSweepShape asserts the companion finding: outside-section work
// does not change the speedup much (both already include it).
func TestESSweepShape(t *testing.T) {
	_, sp := bench.ESSweep(wmsim.X86(), "spin", 2, []int{0, 16}, 60_000)
	d := sp[0] - sp[16]
	if d < 0 {
		d = -d
	}
	if d > 0.5 {
		t.Errorf("speedup should be insensitive to es size, got %.4f vs %.4f", sp[0], sp[16])
	}
}

func TestTable1Renders(t *testing.T) {
	alg := locks.ByName("qspin")
	out := bench.Table1(alg.DefaultSpec().Counts(), "n/a (see BenchmarkTable1)")
	for _, needle := range []string{"Linux 4.4", "VSYNC (paper)", "this repro"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 1 missing row %q", needle)
		}
	}
}
