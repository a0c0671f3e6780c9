package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalstateAnalyzer flags process-wide mutable state: a package-level
// var whose type is a sync.Map or a sync/atomic value, and every
// assignment or increment of a package-level var outside its
// declaration and its own package's init. Such a var outlives every run
// in the process, so runs share it and none can be reproduced alone; a
// cache or counter belongs to the value that owns its run (a Generator,
// a Pool, a cell's obs registry). Initializers of package-level vars,
// function literals in them included, count as the declaration.
var GlobalstateAnalyzer = &Analyzer{
	Name: "globalstate",
	Doc:  "forbid package-level sync.Map and sync/atomic vars, and package-level vars assigned outside their declaration and init",
	Run: func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				initializes := true // var initializers and init run only at package initialization
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if v, ok := info.Defs[id].(*types.Var); ok && syncType(v.Type()) {
								pass.Reportf(id.Pos(),
									"package-level var %s.%s has type %s: process-wide state shared by every run; make it a field of the value that owns the run",
									v.Pkg().Name(), v.Name(), types.TypeString(v.Type(), (*types.Package).Name))
							}
						}
					}
				case *ast.FuncDecl:
					initializes = d.Recv == nil && d.Name.Name == "init"
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					var targets []ast.Expr
					switch s := n.(type) {
					case *ast.AssignStmt:
						if s.Tok != token.DEFINE {
							targets = s.Lhs
						}
					case *ast.IncDecStmt:
						targets = []ast.Expr{s.X}
					case *ast.RangeStmt:
						if s.Tok == token.ASSIGN {
							targets = []ast.Expr{s.Key, s.Value}
						}
					}
					for _, e := range targets {
						v := rootPackageVar(info, e)
						if v == nil || initializes && v.Pkg() == pass.Pkg.Types {
							continue
						}
						pass.Reportf(e.Pos(),
							"package-level var %s.%s assigned outside its declaration and init: process-wide state shared by every run; make it a field of the value that owns the run",
							v.Pkg().Name(), v.Name())
					}
					return true
				})
			}
		}
	},
}

// syncType reports whether t (or what it points to) is a sync.Map or a
// sync/atomic type.
func syncType(t types.Type) bool {
	n := named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync/atomic":
		return true
	case "sync":
		return n.Obj().Name() == "Map"
	}
	return false
}

// rootPackageVar returns the package-level var an assignment target
// writes into — x in x, x.f, x[i], *x and pkg.X — or nil.
func rootPackageVar(info *types.Info, e ast.Expr) *types.Var {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			if v == nil || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return nil
			}
			return v
		case *ast.SelectorExpr:
			if v := rootPackageVar(info, x.Sel); v != nil {
				return v // pkg.X
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
	return nil
}
