package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestBirthRuleAudit: a value-changing write that completes an await
// after read-only failed iterations is counted as collapsed when it is
// built, and neither pushed nor allowed to seed revisits (see
// explorer.pushWrite). That is sound only if every one of those revisits
// would itself have been collapsed at its pop. With the audit armed each
// rejected seed's revisits are built and replayed anyway, over the
// corpus of filter_diff_test.go at 1, 2 and 4 workers.
func TestBirthRuleAudit(t *testing.T) {
	seen := core.AuditBirthRule(true)
	defer core.AuditBirthRule(false)
	collapsed := 0
	for _, cell := range harness.Corpus(testing.Short()) {
		for _, model := range cellModels(cell) {
			for _, workers := range []int{1, 2, 4} {
				res := runFilter(t, model, cell.Program, workers)
				id := fmt.Sprintf("%s under %s at %d workers", cell.Program.Name, model.Name(), workers)
				if _, _, failure := seen(); failure != "" {
					t.Fatalf("%s: %s", id, failure)
				}
				collapsed += res.Stats.Collapsed
			}
		}
	}
	seeds, revisits, _ := seen()
	if seeds == 0 || revisits == 0 {
		t.Fatalf("%d seeds rejected at birth, %d of their revisits replayed: the rule is not wired", seeds, revisits)
	}
	if collapsed < seeds {
		t.Fatalf("%d seeds rejected at birth, but Stats.Collapsed sums to %d", seeds, collapsed)
	}
	t.Logf("%d seeds rejected at birth, %d revisits replayed, every one collapsed", seeds, revisits)
}
