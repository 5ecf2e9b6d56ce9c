// Study case §3.1: the DPDK v20.05 MCS lock bug.
//
// The shipped rte_mcslock publishes prev->next with a relaxed store.
// On a weak memory model the releaser's hand-off can then be
// modification-ordered before the waiter's own initialization, and the
// waiter (Alice) spins forever. AMC detects the hang as an
// await-termination violation and prints the Fig. 14 execution graph;
// the same code verifies under SC and TSO, which is why the bug
// survived review — and the optimizer confirms the §3.1 side-finding
// that the explicit fence in the acquire path is useless.
//
// Run with: go run ./examples/dpdkmcs
package main

import (
	"fmt"

	"repro/vsync"
)

func main() {
	buggy := vsync.LockByName("dpdkmcs-buggy")
	fixed := vsync.LockByName("dpdkmcs")
	// One sequential AMC run each: a single-program Run reduces to that
	// program's failure, or to its statistics when it verifies.
	sequential := vsync.RunOptions{Parallelism: 1, WorkersPerRun: 1}

	fmt.Println("== DPDK rte_mcslock, shipped version (relaxed prev->next) ==")
	for _, model := range []vsync.Model{vsync.ModelSC, vsync.ModelTSO, vsync.ModelWMM} {
		res := vsync.Run(model, []*vsync.Program{vsync.MutexClient(buggy, buggy.DefaultSpec(), 2, 1)}, sequential).Result
		fmt.Printf("  %-4s: %v\n", model.Name(), res)
		if res.Verdict == vsync.ATViolation {
			fmt.Println("\n  Alice hangs — the counterexample graph (cf. Fig. 14):")
			fmt.Println(indent(res.Witness.Render()))
			fmt.Println("  DOT rendering available via res.Witness.DOT(...)")
		}
	}

	fmt.Println("== with the Fig. 15 fix (release store, acquire read) ==")
	for _, model := range []vsync.Model{vsync.ModelSC, vsync.ModelTSO, vsync.ModelWMM} {
		res := vsync.Run(model, []*vsync.Program{vsync.MutexClient(fixed, fixed.DefaultSpec(), 2, 1)}, sequential).Result
		fmt.Printf("  %-4s: %v\n", model.Name(), res)
	}

	fmt.Println("\n== optimizer on the fixed lock ==")
	opt, err := vsync.OptimizeWith(vsync.ModelWMM,
		func(spec *vsync.BarrierSpec) []*vsync.Program {
			return []*vsync.Program{vsync.MutexClient(fixed, spec, 2, 1)}
		}, fixed.DefaultSpec())
	if err != nil {
		panic(err)
	}
	fmt.Println(opt.Report())
	if opt.Final.M("dpdk.pre_await_fence") == vsync.ModeNone {
		fmt.Println("…the explicit fence before the await is useless and was removed (§3.1).")
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
