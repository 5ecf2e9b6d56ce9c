package optimize

import "repro/internal/core"

// SetBudget bounds every AMC run o makes by b.
func SetBudget(o *Optimizer, b core.Budget) { o.budget = b }
