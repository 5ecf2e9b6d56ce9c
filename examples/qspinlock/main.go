// Study case §3.3 / Table 1: push-button barrier optimization of the
// Linux qspinlock.
//
// Starting from the sc-only baseline, the optimizer relaxes each of the
// lock's barrier points while AMC keeps verifying the lock's client
// suite (vsync.LockSuite): a two-thread client covers the fast path and
// the pending bit, a three-thread client the MCS queue end to end, and
// the extracted queue-path litmus (the paper's Fig. 1 methodology)
// covers the MCS hand-off between two queued waiters — the path whose
// missing barrier was the real Linux 4.16 bug. The paper's GenMC-based
// optimization took 11 minutes; this one takes well under a second
// (29 verifications, about 0.2 s on two vCPUs).
//
// Run with: go run ./examples/qspinlock
package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/vsync"
)

func main() {
	fmt.Println("optimizing qspinlock from the sc-only baseline…")
	start := time.Now()
	res, err := vsync.OptimizeLock(vsync.LockByName("qspin"), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Println(res.Report())

	fmt.Println(bench.Table1(res.Counts(), time.Since(start).Round(time.Millisecond).String()))
	fmt.Println("(barrier counts differ slightly from the paper's IMM/LKMM results;")
	fmt.Println(" multiple maximally-relaxed assignments exist — §3.3.)")
}
