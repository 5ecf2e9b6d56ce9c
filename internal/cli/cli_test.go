package cli

import (
	"flag"
	"runtime"
	"strings"
	"testing"
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
