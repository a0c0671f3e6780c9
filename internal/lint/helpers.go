package lint

import (
	"go/ast"
	"go/types"
)

// modulePath is the module these analyzers guard; allowlists are keyed
// by full import paths under it.
const modulePath = "fdw"

// parentMap records each node's syntactic parent within a file, for
// analyses that classify an expression by the context it appears in.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil for builtins, conversions,
// and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// funcPkgPath returns the import path of the package declaring fn
// ("" for builtins and error.Error-style universe methods).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// named returns the named type t denotes, unwrapping aliases and one
// pointer (nil when there is none).
func named(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// recvNamed returns the named type of a method's receiver (nil for
// non-methods and unnamed receivers).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return named(sig.Recv().Type())
}

// recvTypeName returns the name of the named receiver type of a method
// ("" for non-methods).
func recvTypeName(fn *types.Func) string {
	if n := recvNamed(fn); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// methodOn reports whether fn is a method whose receiver's named type
// is declared in the package with the given import path.
func methodOn(fn *types.Func, pkgPath string) bool {
	if fn == nil {
		return false
	}
	n := recvNamed(fn)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}
