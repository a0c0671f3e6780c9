package classad

import (
	"sort"
	"strings"
)

// EvalBool parses src and evaluates it, treating UNDEFINED as false —
// HTCondor's matchmaking semantics for Requirements.
func EvalBool(src string, my, target Ad) (bool, error) {
	e, err := Parse(src)
	if err != nil {
		return false, err
	}
	b, ok := e.Eval(my, target).AsBool()
	return b && ok, nil
}

// ReferencedAttrs reports the attribute names e can resolve in the
// evaluating (job) ad: MY.-prefixed and bare references (bare names
// try MY first, then TARGET — HTCondor's matching order). Names are
// lowercased, de-duplicated, and sorted. The pool's matchmaking index
// uses them to decide which job attributes participate in a job's
// match signature.
func ReferencedAttrs(e Expr) []string {
	set := map[string]bool{}
	collectAttrs(e, set)
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func collectAttrs(e Expr, set map[string]bool) {
	switch v := e.(type) {
	case literal:
		return
	case *attrRef:
		low := strings.ToLower(v.name)
		switch {
		case strings.HasPrefix(low, "my."):
			set[low[3:]] = true
		case !strings.HasPrefix(low, "target."):
			set[low] = true
		}
	case *unary:
		collectAttrs(v.x, set)
	case *binary:
		collectAttrs(v.l, set)
		collectAttrs(v.r, set)
	}
}
