package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatorder guards the §7 numeric-determinism contract at its sharpest
// edge: floating-point addition is not associative, so a sum whose
// operand order varies run to run yields different bits. The orders Go
// does not pin down are map iteration, channel arrival, and goroutine
// completion (a go statement's function, or a par.Each worker factory
// and the jobs it returns, including a closure declared inside them
// that captures the accumulator); a float accumulation fed by any of
// them is flagged. The
// blessed patterns are the ones the parallel kernels use — iterate
// sorted keys, or accumulate per-worker and reduce in a fixed order.

// FloatorderAnalyzer flags float += / -= reductions whose operand
// order is nondeterministic.
var FloatorderAnalyzer = &Analyzer{
	Name: "floatorder",
	Doc:  "flag float +=/-= reductions ordered by map iteration, channel arrival, or goroutine completion",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			parents := parentMap(f)
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
					return true
				}
				if len(as.Lhs) != 1 || !isFloatExpr(pass.Pkg.Info, as.Lhs[0]) {
					return true
				}
				checkFloatAccum(pass, parents, as)
				return true
			})
		}
	},
}

// isFloatExpr reports whether e has a floating-point type.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkFloatAccum classifies the context of one float accumulation by
// walking outward to the enclosing function, reporting the innermost
// nondeterministic ordering it crosses. Accumulators declared inside
// the ordering construct reset each iteration and are exempt.
func checkFloatAccum(pass *Pass, parents map[ast.Node]ast.Node, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	acc := rootObject(info, as.Lhs[0])
	if acc == nil {
		return
	}
	accExpr := types.ExprString(as.Lhs[0])
	for cur := ast.Node(as); cur != nil; cur = parents[cur] {
		switch p := parents[cur].(type) {
		case *ast.RangeStmt:
			tx := info.TypeOf(p.X)
			if cur != p.Body || acc.Pos() >= p.Pos() || tx == nil {
				continue
			}
			switch tx.Underlying().(type) {
			case *types.Map:
				pass.Reportf(as.Pos(),
					"float accumulation into %s ordered by iteration over map %s: addition is not associative, so map order changes the sum — iterate sorted keys",
					accExpr, types.ExprString(p.X))
				return
			case *types.Chan:
				pass.Reportf(as.Pos(),
					"float accumulation into %s ordered by receives from channel %s: arrival order is scheduler-dependent — collect the values and sum them in a fixed order",
					accExpr, types.ExprString(p.X))
				return
			}
			if loopHasReceive(as) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s from a channel receive inside a loop: arrival order is scheduler-dependent — collect the values and sum them in a fixed order",
					accExpr)
				return
			}
		case *ast.ForStmt:
			if cur == p.Body && acc.Pos() < p.Pos() && loopHasReceive(as) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s from a channel receive inside a loop: arrival order is scheduler-dependent — collect the values and sum them in a fixed order",
					accExpr)
				return
			}
		case *ast.FuncLit:
			if !concurrentBody(info, parents, p) {
				if acc.Pos() >= p.Pos() && acc.Pos() <= p.End() {
					return // an ordinary closure orders its own calls
				}
				// The accumulator is captured: the closure's callers
				// decide the order, so keep walking outward.
				continue
			}
			// Indexed slots (parts[w] += x) are the blessed per-worker
			// pattern: disjoint writes, reduced later in a fixed order.
			// Only a shared scalar or field races on completion order.
			switch ast.Unparen(as.Lhs[0]).(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				return
			}
			if acc.Pos() < p.Pos() || acc.Pos() > p.End() {
				pass.Reportf(as.Pos(),
					"float accumulation into captured %s inside a goroutine: completion order is scheduler-dependent — accumulate per-worker and reduce in a fixed order",
					accExpr)
			}
			return
		case *ast.FuncDecl:
			return
		}
	}
}

// loopHasReceive reports whether the accumulation's right-hand side
// contains a channel receive.
func loopHasReceive(as *ast.AssignStmt) bool {
	found := false
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			found = true
		}
		return !found
	})
	return found
}

// concurrentBody reports whether lit runs concurrently with its
// siblings: the function of a go statement, a worker factory passed to
// par.Each, or a job such a factory returns.
func concurrentBody(info *types.Info, parents map[ast.Node]ast.Node, lit *ast.FuncLit) bool {
	if call, ok := parents[lit].(*ast.CallExpr); ok && call.Fun == lit {
		_, ok = parents[call].(*ast.GoStmt)
		return ok
	}
	if parEachArg(info, parents, lit) {
		return true
	}
	if _, ok := parents[lit].(*ast.ReturnStmt); !ok {
		return false
	}
	for cur := parents[lit]; cur != nil; cur = parents[cur] {
		switch p := cur.(type) {
		case *ast.FuncLit:
			return parEachArg(info, parents, p)
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}

// parEachArg reports whether lit is an argument of a par.Each call.
func parEachArg(info *types.Info, parents map[ast.Node]ast.Node, lit *ast.FuncLit) bool {
	call, ok := parents[lit].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "Each" && funcPkgPath(fn) == modulePath+"/internal/par"
}
