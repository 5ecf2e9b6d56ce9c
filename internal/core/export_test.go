package core

import "repro/internal/graph"

// GenerateThenTest switches c to the generate-then-test reference (see
// Checker.genThenTest); audit receives every graph the birth filter
// would have skipped, from the worker goroutines.
func (c *Checker) GenerateThenTest(audit func(doomed *graph.Graph)) { c.genThenTest = audit }
