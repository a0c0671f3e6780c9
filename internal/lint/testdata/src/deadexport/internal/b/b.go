// Package b calls into package a.
package b

import "deadexport/internal/a"

// Sizer is the interface through which a.T.Size is reached.
type Sizer interface{ Size() int }

// Measure is called from cmd/c: not flagged.
func Measure(s Sizer) int {
	a.Also()
	return s.Size() + a.Used()
}

// New returns an a.T, so a.T has a use outside its declaration.
func New() a.T { return a.T{} }
