package cli

import (
	"flag"
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
