package bench_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/wmsim"
)

var updateCampaignGolden = flag.Bool("update-campaign-golden", false, "rewrite testdata/campaign_golden.txt from this build")

const campaignGolden = "testdata/campaign_golden.txt"

// campaignDump renders every number a small §4.2 run produces: each raw
// record of the campaign (virtual time only), Fig. 27 on both machines
// and the cs/es sweeps.
func campaignDump() string {
	var b strings.Builder
	for _, r := range bench.RunCampaign(tinyConfig()) {
		fmt.Fprintf(&b, "%s %s %s t=%d run=%d count=%d dur=%v tput=%v\n",
			r.Arch, r.Algorithm, r.Variant, r.Threads, r.Run, r.Count, r.Duration, r.Throughput)
	}
	for _, mc := range wmsim.Machines() {
		b.WriteString(bench.Fig27(mc, []int{1, 2, 8}, 2, 40_000))
	}
	cs, _ := bench.CSSweep(wmsim.X86(), "spin", 1, []int{1, 16, 64}, 60_000)
	b.WriteString(cs)
	cs, _ = bench.CSSweep(wmsim.ARMv8(), "mcs", 4, []int{1, 8}, 60_000)
	b.WriteString(cs)
	es, _ := bench.ESSweep(wmsim.X86(), "spin", 2, []int{0, 16}, 60_000)
	b.WriteString(es)
	es, _ = bench.ESSweep(wmsim.ARMv8(), "qspin", 4, []int{0, 8}, 60_000)
	b.WriteString(es)
	return b.String()
}

// TestCampaignGolden pins the simulated campaign byte for byte: a change
// to a lock's barriers, the simulator or the Listing-1 driver shows here
// as a diff of the numbers it moved. Regenerate only on purpose, with
// -update-campaign-golden, and read the diff.
func TestCampaignGolden(t *testing.T) {
	got := campaignDump()
	if *updateCampaignGolden {
		if err := os.MkdirAll(filepath.Dir(campaignGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(campaignGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(campaignGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update-campaign-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", campaignGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", campaignGolden, len(gl), len(wl))
	}
}
