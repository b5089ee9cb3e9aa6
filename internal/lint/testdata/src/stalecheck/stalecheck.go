// Package stalecheck exercises the suppression-staleness audit: one
// directive that earns its keep, one scoped directive that suppresses
// nothing, and one unscoped directive that suppresses nothing.
package stalecheck

import "time"

// overBudget carries a live suppression: the wall-clock read on its
// return line is a real detpath finding.
func overBudget(start time.Time, budget time.Duration) bool {
	return time.Since(start) > budget //statslint:allow detpath test fixture: the budget check is intentionally wall-clock
}

// add carries a scoped directive with nothing left to suppress.
//
//statslint:allow detpath nothing nondeterministic left on this line
func add(a, b int) int {
	return a + b
}

// mul carries an unscoped directive with nothing to suppress either: the
// whole suite ran, so no analyzer needs it.
//
//statslint:allow blanket waiver no analyzer needs
func mul(a, b int) int {
	return a * b
}
