package optimize_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/vprog"
)

// The descent — which relaxations are tried, in which order, which are
// accepted, and the spec it ends on — is a function of the algorithm,
// the client suite and the model alone. testdata/descent_pins.txt holds
// it for four locks, over optimize.LockSuite, as the engine produced it
// before verify learned to share a run among equal programs and to
// submit the cheapest first; no engine setting and no order of the
// suite may move it. Every setting tries a point's candidates one at a
// time and stops at the accepted one, so each lock has one section, and
// a section no setting produces fails the test rather than outliving
// its engine.
var updateDescentPins = flag.Bool("update-descent-pins", false, "rewrite testdata/descent_pins.txt from this build's descents")

const descentPinFile = "testdata/descent_pins.txt"

// renderDescent is the pinned view of a result: verdicts and timings,
// which may legitimately differ between engines, are left out.
func renderDescent(res *optimize.Result) string {
	var b strings.Builder
	for _, s := range res.Steps {
		mark := "-"
		if s.Accepted {
			mark = "+"
		}
		fmt.Fprintf(&b, "%s %s %s\n", s.Point, s.Tried, mark)
	}
	fmt.Fprintf(&b, "final %s\n", res.Final.Fingerprint())
	return b.String()
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

func TestDescentPinned(t *testing.T) {
	cases := []struct {
		lock    string
		threads int
	}{{"ttas", 2}, {"mcs", 2}, {"dpdkmcs", 2}, {"qspin", 3}}

	pins := map[string]string{}
	if !*updateDescentPins {
		data, err := os.ReadFile(descentPinFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range strings.Split(string(data), "== ")[1:] {
			name, body, _ := strings.Cut(sec, "\n")
			pins[name] = body
		}
	}

	var pinned []string // the sections produced, in the order first produced
	for _, c := range cases {
		alg := locks.ByName(c.lock)
		suite := optimize.LockSuite(alg, c.threads)
		perms := permutations(len(suite(alg.DefaultSpec())))
		for _, perm := range perms {
			for _, par := range []int{1, 2} {
				for _, cached := range []bool{false, true} {
					if testing.Short() && c.lock == "qspin" && (!slices.IsSorted(perm) || par == 1 || cached) {
						continue // -short, which the race lane runs: qspin in suite order on two workers, uncached
					}
					opt := &optimize.Optimizer{
						Model: mm.WMM, Parallelism: par,
						Programs: func(spec *vprog.BarrierSpec) []*vprog.Program {
							ps := suite(spec)
							shuffled := make([]*vprog.Program, len(ps))
							for i, from := range perm {
								shuffled[i] = ps[from]
							}
							return shuffled
						},
					}
					if cached {
						opt.Cache = optimize.NewCache()
					}
					res, err := opt.Run(alg.DefaultSpec().AllSC())
					if err != nil {
						t.Fatalf("%s: %v", c.lock, err)
					}
					name, got := c.lock+" one-at-a-time", renderDescent(res)
					if !slices.Contains(pinned, name) {
						pinned = append(pinned, name)
						if *updateDescentPins {
							pins[name] = got
						}
					}
					if got != pins[name] {
						t.Errorf("%s, suite order %v, Parallelism %d, cache %v: descent moved\ngot:\n%swant:\n%s",
							name, perm, par, cached, got, pins[name])
					}
					if c.lock == "qspin" && par == 1 && slices.IsSorted(perm) {
						checkQspinAccounting(t, res, cached)
					}
				}
			}
		}
	}
	if !*updateDescentPins && !testing.Short() {
		for name := range pins {
			if !slices.Contains(pinned, name) {
				t.Errorf("%s: pinned in %s but produced by no configuration; delete the section", name, descentPinFile)
			}
		}
	}
	if *updateDescentPins {
		var out strings.Builder
		for _, name := range pinned {
			fmt.Fprintf(&out, "== %s\n%s", name, pins[name])
		}
		if err := os.WriteFile(descentPinFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkQspinAccounting pins what the benchmark pins of vsyncopt -lock
// qspin -threads 3 -par 1, and the lines it prints besides:
// 29 verifications, 87 lookups with a cache (three per verification)
// and none without, no hits in a single pass, one deduped program per
// verification (the three-thread client is listed twice) and nine
// candidates refuted before their second run started.
func checkQspinAccounting(t *testing.T, res *optimize.Result, cached bool) {
	t.Helper()
	lookups := 0
	if cached {
		lookups = 87
	}
	got := fmt.Sprintf("%d verifications, %d hits / %d lookups, %d deduped, %d not started",
		res.Verifications, res.CacheHits, res.CacheLookups, res.Deduped, res.Skipped)
	if want := fmt.Sprintf("29 verifications, 0 hits / %d lookups, 29 deduped, 9 not started", lookups); got != want {
		t.Errorf("qspin one-at-a-time, cache %v: %s, want %s", cached, got, want)
	}
	c := res.Counts()
	if got := fmt.Sprintf("rlx=%d acq=%d rel=%d", c.Rlx, c.Acq, c.Rel); got != "rlx=7 acq=6 rel=3" {
		t.Errorf("qspin one-at-a-time, cache %v: final modes %s, want rlx=7 acq=6 rel=3", cached, got)
	}
}

// TestCacheSecondRunAccounting: every lookup of a second descent over
// the same session is accounted for — served by the cache, deduped onto
// a sibling's run, or not started because a stored failure refuted the
// candidate first — and no AMC run starts, at one slot and at two. At
// one slot the split is pinned, as vsyncopt -lock qspin -threads 3 -par
// 1 -store F prints it on its second run; at two, which of a refuted
// candidate's programs the first descent finished depends on timing, so
// only the sum is.
func TestCacheSecondRunAccounting(t *testing.T) {
	alg := locks.ByName("qspin")
	for _, par := range []int{1, 2} {
		cache := optimize.NewCache()
		var res *optimize.Result
		for range 2 {
			opt := &optimize.Optimizer{Model: mm.WMM, Parallelism: par, Programs: optimize.LockSuite(alg, 3), Cache: cache}
			var err error
			if res, err = opt.Run(alg.DefaultSpec().AllSC()); err != nil {
				t.Fatal(err)
			}
		}
		if n := res.CacheHits + res.Deduped + res.Skipped; n != res.CacheLookups {
			t.Errorf("Parallelism %d, second run: %d hits + %d deduped + %d not started = %d, want the %d lookups",
				par, res.CacheHits, res.Deduped, res.Skipped, n, res.CacheLookups)
		}
		if par == 1 {
			got := fmt.Sprintf("%d hits / %d lookups, %d deduped, %d not started", res.CacheHits, res.CacheLookups, res.Deduped, res.Skipped)
			if want := "69 hits / 87 lookups, 0 deduped, 18 not started"; got != want {
				t.Errorf("second run: %s, want %s", got, want)
			}
			continue
		}
		runs := 0
		for _, n := range res.Pool.Jobs {
			runs += n
		}
		if len(res.Pool.Jobs) != par || runs != 0 {
			t.Errorf("Parallelism %d, second run: %d AMC runs on %d reported slots, want none on %d", par, runs, len(res.Pool.Jobs), par)
		}
	}
}
