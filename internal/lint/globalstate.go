package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalstateAnalyzer flags process-wide mutable state:
//   - a package-level var whose type is or holds a sync.Map, a
//     sync.Mutex or RWMutex, or a sync/atomic value (in a field, an
//     array element, or behind the var's own pointer): the lock or the
//     atomic is there because the value is changed after its
//     declaration;
//   - a package-level var whose type, declared in the same package, has
//     a pointer-receiver method that writes the receiver (its fields,
//     their elements, or *r): a cache such as
//     `var DefaultCache = NewCache(16)` is filled through its methods,
//     never by an assignment to the var;
//   - every assignment or increment of a package-level var outside its
//     declaration and its own package's init.
//
// Such a var outlives every run in the process, so runs share it and
// none can be reproduced alone; a cache or counter belongs to the value
// that owns its run (a Generator, a Pool, a cell's obs registry).
// Initializers of package-level vars, function literals in them
// included, count as the declaration. Methods of types declared in
// other packages are not read, so a lock-free cache type from another
// package passes.
var GlobalstateAnalyzer = &Analyzer{
	Name: "globalstate",
	Doc:  "forbid package-level vars that hold a lock, sync.Map or atomic, or whose type's methods write it, and package-level vars assigned outside their declaration and init",
	Run: func(pass *Pass) {
		info := pass.Pkg.Info
		writers := writerMethods(pass.Pkg)
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
							v, ok := info.Defs[id].(*types.Var)
							if !ok {
								continue
							}
							typ := types.TypeString(v.Type(), (*types.Package).Name)
							if held := heldSync(v.Type(), 0); held != nil {
								if held != deref(v.Type()) {
									typ += ", which holds " + types.TypeString(held, (*types.Package).Name)
								}
								pass.Reportf(id.Pos(),
									"package-level var %s.%s has type %s: process-wide state shared by every run; make it a field of the value that owns the run",
									v.Pkg().Name(), v.Name(), typ)
							} else if m := writers[namedOf(v.Type())]; m != "" {
								pass.Reportf(id.Pos(),
									"package-level var %s.%s has type %s, whose method %s writes it: process-wide state shared by every run; make it a field of the value that owns the run",
									v.Pkg().Name(), v.Name(), typ, m)
							}
						}
					}
				case *ast.FuncDecl:
					initializes = d.Recv == nil && d.Name.Name == "init"
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					for _, e := range assignTargets(n) {
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

// heldSync returns the first sync.Map, sync.Mutex, sync.RWMutex or
// sync/atomic type that t is or holds by value: t itself, what t points
// to at the top level (depth 0), its struct fields and array elements.
// It returns nil when t holds none.
func heldSync(t types.Type, depth int) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		if depth > 0 {
			return nil // a pointer field shares, it does not hold
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		switch path, name := n.Obj().Pkg().Path(), n.Obj().Name(); {
		case path == "sync/atomic",
			path == "sync" && (name == "Map" || name == "Mutex" || name == "RWMutex"):
			return n
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if h := heldSync(u.Field(i).Type(), depth+1); h != nil {
				return h
			}
		}
	case *types.Array:
		return heldSync(u.Elem(), depth+1)
	}
	return nil
}

// deref returns what t points to, or t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the type name of t, *t or an array of either, or nil.
func namedOf(t types.Type) *types.TypeName {
	if a, ok := deref(t).Underlying().(*types.Array); ok {
		t = a.Elem()
	}
	if n := named(t); n != nil {
		return n.Obj()
	}
	return nil
}

// assignTargets returns what statement n writes: the left side of an
// assignment (not a :=), an increment's operand, or a range clause's
// key and value assigned with =. Entries may be nil.
func assignTargets(n ast.Node) []ast.Expr {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.DEFINE {
			return s.Lhs
		}
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	case *ast.RangeStmt:
		if s.Tok == token.ASSIGN {
			return []ast.Expr{s.Key, s.Value}
		}
	}
	return nil
}

// writerMethods maps each type declared in pkg to the name of its first
// pointer-receiver method (in source order) that writes the receiver:
// an assignment, increment or range assignment whose target is rooted
// at the receiver (r.f, r.f[i], *r).
func writerMethods(pkg *Package) map[*types.TypeName]string {
	out := map[*types.TypeName]string{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			if _, ptr := ast.Unparen(fd.Recv.List[0].Type).(*ast.StarExpr); !ptr {
				continue
			}
			recv := pkg.Info.Defs[fd.Recv.List[0].Names[0]]
			if recv == nil {
				continue
			}
			tn := namedOf(recv.Type())
			if tn == nil || out[tn] != "" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				for _, e := range assignTargets(n) {
					if e != nil && rootIdent(pkg.Info, e) == recv {
						out[tn] = fd.Name.Name
						return false
					}
				}
				return out[tn] == ""
			})
		}
	}
	return out
}

// rootIdent returns the object of the variable an assignment target
// writes through — r in r.f, r.f[i] and *r — when the target is a
// field, element or indirection of it; a bare r is a local rebinding.
func rootIdent(info *types.Info, e ast.Expr) types.Object {
	through := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if !through {
				return nil
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			e, through = x.X, true
		case *ast.IndexExpr:
			e, through = x.X, true
		case *ast.StarExpr:
			e, through = x.X, true
		default:
			return nil
		}
	}
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
