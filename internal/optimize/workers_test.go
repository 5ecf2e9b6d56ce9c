package optimize_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/optimize"
	"repro/internal/vprog"
)

// TestViolationSameAtEveryWorkerCount: a violating run reports the same
// verdict, counterexample, message and counters at 1, 2 and 4 workers.
// The cells are where that once failed: the t=3 clients of three locks
// optimized from all-SC against their t=2 suite (a parallel run of
// cmcsticket's reported an await-termination violation where one worker
// reports a lost update), and the §3.1 and §3.2 study cases at t=3.
func TestViolationSameAtEveryWorkerCount(t *testing.T) {
	var cells []*vprog.Program
	for _, name := range []string{"cmcsticket", "cmcsttas", "ctwamcs"} {
		alg := locks.ByName(name)
		o := &optimize.Optimizer{Model: mm.WMM, Programs: optimize.LockSuite(alg, 2)}
		res, err := o.Run(alg.DefaultSpec().AllSC())
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, harness.MutexClient(alg, res.Final, 3, 1))
	}
	for _, name := range []string{"dpdkmcs-buggy", "huaweimcs-buggy"} {
		alg := locks.ByName(name)
		cells = append(cells, harness.MutexClient(alg, alg.DefaultSpec(), 3, 1))
	}
	for _, p := range cells {
		var seq *core.Result
		for _, workers := range []int{1, 2, 4} {
			c := core.New(mm.WMM)
			c.WorkersPerRun = workers
			res := c.Run(p)
			if res.Witness == nil {
				t.Fatalf("%s at %d workers: %v, want a violation", p.Name, workers, res.Verdict)
			}
			if seq == nil {
				seq = res
				continue
			}
			switch {
			case res.Verdict != seq.Verdict || res.Message != seq.Message:
				t.Errorf("%s at %d workers: %v (%q), at one worker %v (%q)", p.Name, workers, res.Verdict, res.Message, seq.Verdict, seq.Message)
			case res.Witness.Fingerprint128() != seq.Witness.Fingerprint128():
				t.Errorf("%s at %d workers: the counterexample is not the one-worker one", p.Name, workers)
			case res.Stats != seq.Stats:
				t.Errorf("%s at %d workers: counters %+v, at one worker %+v", p.Name, workers, res.Stats, seq.Stats)
			}
		}
	}
}
