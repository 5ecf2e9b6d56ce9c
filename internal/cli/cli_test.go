package cli

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/vsync"
)

// TestModelNames: the -model help and the refusal of an unknown name
// carry one list, and every name on it resolves.
func TestModelNames(t *testing.T) {
	list := modelNames()
	for _, name := range strings.Split(list, ", ") {
		if m, err := resolveModel(name); err != nil || m.Name() != name {
			t.Errorf("listed model %q does not resolve: %v", name, err)
		}
	}
	if !strings.HasSuffix(list, ", ra") {
		t.Errorf("the ablation model ra resolves but is not listed: %q", list)
	}
	if _, err := resolveModel("arm"); err == nil || !strings.Contains(err.Error(), "("+list+")") {
		t.Errorf("unknown model: got %v, want a refusal listing (%s)", err, list)
	}
	Model()
	if usage := flag.Lookup("model").Usage; !strings.HasSuffix(usage, list) {
		t.Errorf("-model help %q does not end with the list %q", usage, list)
	}
}

// TestWorkersZeroIsGOMAXPROCS: -workers 0 promises GOMAXPROCS workers
// per run, and the library's zero WorkersPerRun is one worker, so the
// flag resolves its zero before any tool hands it on; 1 stays 1.
func TestWorkersZeroIsGOMAXPROCS(t *testing.T) {
	workers := Workers()
	for _, c := range []struct {
		flag string
		want int
	}{{"0", runtime.GOMAXPROCS(0)}, {"1", 1}, {"3", 3}} {
		if err := flag.Set("workers", c.flag); err != nil {
			t.Fatal(err)
		}
		if got := workers(); got != c.want {
			t.Errorf("-workers %s resolves to %d, want %d", c.flag, got, c.want)
		}
	}
}

// TestCheckCounts: the one count check refuses the first flag out of its
// range, naming the flag, the value and the bound; a value at a bound
// passes, a Min with no Least is a floor of zero, and int64, float and
// duration flags are held to theirs the same way. A flag that needs
// another may be nonzero only with the other set.
func TestCheckCounts(t *testing.T) {
	mins := []Min{{Flag: "threads", Least: 2}, {Flag: "iters", Least: 1}, {Flag: "workers"},
		{Flag: "budget"}, {Flag: "budget-graphs"}, {Flag: "budget-mem"},
		{Flag: "min-hit-rate", Most: 1}, {Flag: "checkpoint-interval", Needs: "checkpoint-dir"}}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-threads", "2", "-iters", "1", "-workers", "0"}, ""},
		{[]string{"-threads", "5", "-iters", "3", "-workers", "4"}, ""},
		{[]string{"-threads", "0"}, "-threads 0: the least value is 2"},
		{[]string{"-threads", "1"}, "-threads 1: the least value is 2"},
		{[]string{"-iters", "0"}, "-iters 0: the least value is 1"},
		{[]string{"-iters", "-2"}, "-iters -2: the least value is 1"},
		{[]string{"-workers", "-3"}, "-workers -3: the least value is 0"},
		{[]string{"-threads", "0", "-iters", "0"}, "-threads 0: the least value is 2"},
		{[]string{"-budget", "30s", "-budget-graphs", "1500000", "-budget-mem", "0"}, ""},
		{[]string{"-budget", "-1s"}, "-budget -1s: the least value is 0"},
		{[]string{"-budget-graphs", "-5"}, "-budget-graphs -5: the least value is 0"},
		{[]string{"-budget-mem", "-5"}, "-budget-mem -5: the least value is 0"},
		{[]string{"-min-hit-rate", "0.99"}, ""},
		{[]string{"-min-hit-rate", "1"}, ""},
		{[]string{"-min-hit-rate", "2"}, "-min-hit-rate 2: the greatest value is 1"},
		{[]string{"-min-hit-rate", "-1"}, "-min-hit-rate -1: the least value is 0"},
		{[]string{"-checkpoint-interval", "5s", "-checkpoint-dir", "d"}, ""},
		{[]string{"-checkpoint-dir", "d"}, ""},
		{[]string{"-checkpoint-interval", "1s"}, "-checkpoint-interval 1s needs -checkpoint-dir"},
		{[]string{"-checkpoint-interval", "-1s", "-checkpoint-dir", "d"}, "-checkpoint-interval -1s: the least value is 0"},
	} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.Int("threads", 2, "")
		fs.Int("iters", 1, "")
		fs.Int("workers", 1, "")
		fs.Duration("budget", 0, "")
		fs.Int64("budget-graphs", 0, "")
		fs.Int64("budget-mem", 0, "")
		fs.Float64("min-hit-rate", 0, "")
		fs.Duration("checkpoint-interval", 0, "")
		fs.String("checkpoint-dir", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := checkCounts(fs, mins); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%v: got %q, want %q", c.args, got, c.want)
		}
	}
}

// TestExit: the one map from a verdict to a tool's exit status. An
// interrupted run is undecided whether or not it checkpointed.
func TestExit(t *testing.T) {
	for _, c := range []struct {
		v    vsync.Verdict
		want int
	}{
		{vsync.OK, 0},
		{vsync.SafetyViolation, 1},
		{vsync.ATViolation, 1},
		{core.Error, 2},
		{vsync.Undecided, ExitUndecided},
		{vsync.Canceled, ExitUndecided},
		{vsync.Verdict(200), 2},
	} {
		if got := Exit(c.v); got != c.want {
			t.Errorf("Exit(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}
