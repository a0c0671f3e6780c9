package classad

import (
	"sort"
	"strings"
	"sync"
)

// parseCache memoizes Parse results by source text. Requirements
// expressions repeat heavily across jobs (every job of one workflow
// phase shares a handful of strings), so matchmaking-rate callers go
// through ParseCached instead of reparsing per evaluation. Parsing is
// pure, so the memo cannot affect results, only speed; the cache is
// safe for the concurrent experiment harness.
var parseCache sync.Map // string -> parseResult

type parseResult struct {
	expr Expr
	err  error
}

// ParseCached is Parse with a process-wide memo. The returned Expr is
// shared between callers; expressions are immutable after parsing, and
// Eval is safe to call concurrently.
func ParseCached(src string) (Expr, error) {
	if v, ok := parseCache.Load(src); ok {
		r := v.(parseResult)
		return r.expr, r.err
	}
	expr, err := Parse(src)
	v, _ := parseCache.LoadOrStore(src, parseResult{expr, err})
	r := v.(parseResult)
	return r.expr, r.err
}

// EvalBoolCached parses src through ParseCached and evaluates it,
// treating UNDEFINED as false — HTCondor's matchmaking semantics for
// Requirements.
func EvalBoolCached(src string, my, target Ad) (bool, error) {
	e, err := ParseCached(src)
	if err != nil {
		return false, err
	}
	b, ok := e.Eval(my, target).AsBool()
	return b && ok, nil
}

// ReferencedAttrs reports the attribute names e can resolve, split by
// which ad they may probe: MY.-prefixed and bare references read the
// evaluating (job) ad; TARGET.-prefixed and bare references read the
// machine ad (bare names try MY first, then TARGET — HTCondor's
// matching order — so they appear in both sets). Names are lowercased,
// de-duplicated, and sorted. The pool's matchmaking index uses the MY
// set to decide which job attributes participate in a job's match
// signature.
func ReferencedAttrs(e Expr) (my, target []string) {
	mySet := map[string]bool{}
	targetSet := map[string]bool{}
	collectAttrs(e, mySet, targetSet)
	return sortedKeys(mySet), sortedKeys(targetSet)
}

func collectAttrs(e Expr, mySet, targetSet map[string]bool) {
	switch v := e.(type) {
	case literal:
		return
	case *attrRef:
		low := strings.ToLower(v.name)
		switch {
		case strings.HasPrefix(low, "my."):
			mySet[low[3:]] = true
		case strings.HasPrefix(low, "target."):
			targetSet[low[7:]] = true
		default:
			mySet[low] = true
			targetSet[low] = true
		}
	case *unary:
		collectAttrs(v.x, mySet, targetSet)
	case *binary:
		collectAttrs(v.l, mySet, targetSet)
		collectAttrs(v.r, mySet, targetSet)
	}
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
