// Package a declares the exports deadexport judges.
package a

import "fmt"

// Used is called from package b: not flagged.
func Used() int { return helper() }

// helper is unexported: outside the rule.
func helper() int { return Internal() }

// Internal is used only inside its own package, which counts.
func Internal() int { return 1 }

// Dead has no caller at all: flagged.
func Dead() {}

// Recurse calls only itself; a use inside its own declaration does not
// count: flagged.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// TestOnly is called from a_test.go alone, which the loader never
// reads: flagged.
func TestOnly() {}

// Limit is an exported constant nobody reads: flagged.
const Limit = 3

// T is used by package b.
type T struct{ n int }

// DeadMethod has no caller: flagged.
func (t T) DeadMethod() int { return t.n }

// Size is reached only through b.Sizer, so no file names it: not
// flagged.
func (t T) Size() int { return t.n }

// String is reached only through fmt.Stringer: not flagged.
func (t T) String() string { return fmt.Sprint(t.n) }

// Orphan is named only by its own methods' receivers: flagged, and so
// is its method.
type Orphan struct{}

// Touch has no caller: flagged.
func (*Orphan) Touch() {}

// touch is unexported and outside the rule, but its receiver is still
// part of Orphan's own declaration, not a use of Orphan.
func (*Orphan) touch() {}

// Kept has no caller, but a reasoned directive keeps it.
//
//lint:allow deadexport fixture: the reasoned directive suppresses this finding
func Kept() {}

// Also is used by package b, so the directive above it is unused and
// reported.
//
//lint:allow deadexport fixture: nothing to suppress, so this directive is reported
func Also() {}
