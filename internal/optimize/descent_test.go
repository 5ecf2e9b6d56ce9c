package optimize_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/vprog"
)

// The descent — which relaxations are tried, in which order, which are
// accepted, and the spec it ends on — is a function of the algorithm,
// the client suite and the model alone. testdata/descent_pins.txt holds
// it for four locks as the engine produced it before verify learned to
// share a run among equal programs and to submit the cheapest first;
// no engine setting and no order of the suite may move it. A ladder
// (Parallelism > 1 with Speculate) records every candidate of a point,
// the one-at-a-time engine stops at the accepted one, so each lock is
// pinned once for either.
var updateDescentPins = flag.Bool("update-descent-pins", false, "rewrite testdata/descent_pins.txt from this build's descents")

const descentPinFile = "testdata/descent_pins.txt"

// descentSuite is vsyncopt's client set for alg: the mutex client at
// the given thread count, and for qspin the queue-path litmus and the
// three-thread client as well — which at threads=3 is the first one
// again, as vsyncopt -lock qspin -threads 3 has it.
func descentSuite(alg *locks.Algorithm, threads int) func(*vprog.BarrierSpec) []*vprog.Program {
	return func(spec *vprog.BarrierSpec) []*vprog.Program {
		ps := []*vprog.Program{harness.MutexClient(alg, spec, threads, 1)}
		if alg.Name == "qspin" {
			ps = append(ps, harness.QspinQueuePathLitmus(spec), harness.MutexClient(alg, spec, 3, 1))
		}
		return ps
	}
}

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

	var pinned []string // update mode: the sections in the order first produced
	for _, c := range cases {
		alg := locks.ByName(c.lock)
		suite := descentSuite(alg, c.threads)
		perms := permutations(len(suite(alg.DefaultSpec())))
		for _, perm := range perms {
			for _, par := range []int{1, 2} {
				for _, speculate := range []bool{false, true} {
					for _, cached := range []bool{false, true} {
						if testing.Short() && c.lock == "qspin" && (!slices.IsSorted(perm) || par == 1 || cached) {
							continue // -short, which the race lane runs: qspin in suite order on two workers, uncached
						}
						opt := &optimize.Optimizer{
							Model: mm.WMM, Parallelism: par, Speculate: speculate,
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
						engine := "one-at-a-time"
						if par > 1 && speculate {
							engine = "ladder"
						}
						name, got := c.lock+" "+engine, renderDescent(res)
						if _, ok := pins[name]; !ok && *updateDescentPins {
							pins[name] = got
							pinned = append(pinned, name)
						}
						if got != pins[name] {
							t.Errorf("%s, suite order %v, Parallelism %d, Speculate %v, cache %v: descent moved\ngot:\n%swant:\n%s",
								name, perm, par, speculate, cached, got, pins[name])
						}
					}
				}
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
