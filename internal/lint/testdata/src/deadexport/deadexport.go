// Package deadexport is the module's root package, its public façade:
// the rule covers it as it covers internal/.
package deadexport

import "deadexport/internal/a"

// Facade is called from cmd/c: not flagged.
func Facade() int { return a.Used() }

// Unwired has no caller: flagged.
func Unwired() int { return a.Used() }
