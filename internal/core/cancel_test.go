package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// heavyProgram explores a multi-second state space: the 3-thread
// mutex client of two MCS iterations (the retry-free collapse shrank
// the former one-iteration qspin t3 run to milliseconds, too quick to
// outlive a cancellation, and two qspin iterations overrun the graph
// cap).
func heavyProgram() *vprog.Program {
	alg := locks.ByName("mcs")
	return harness.MutexClient(alg, alg.DefaultSpec(), 3, 2)
}

// TestRunCtxCanceled: a canceled context stops an exploration at the
// next check point with a Canceled verdict, not a wrong answer.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	res := core.New(mm.WMM).RunCtx(ctx, heavyProgram())
	if res.Verdict != core.Canceled {
		t.Fatalf("verdict = %v, want canceled", res.Verdict)
	}
	if res.Err == nil {
		t.Error("canceled result should carry the context error")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("pre-canceled run still took %v", d)
	}
}
