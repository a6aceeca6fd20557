// Package sim (allowsyntax fixture) pins the suppression grammar: a
// //lint:allow comment without a reason, or without the space after the
// prefix, is itself reported and suppresses nothing, so every exception in
// the tree stays justified.
package sim

import "time"

func missingReason() time.Time {
	//lint:allow determinism
	return time.Now() // want `wall-clock call time.Now`
}

func missingSpace() time.Time {
	//lint:allowdeterminism the check name runs into the prefix
	return time.Now() // want `wall-clock call time.Now`
}
