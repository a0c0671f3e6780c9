package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// DeadexportAnalyzer enforces "no export without a caller" for
// internal/... and the module's root package (the public façade):
// every exported package-level identifier and every exported method
// must be used by some non-test file of the module outside its own
// declaration. Callers anywhere in the module count
// (cmd/, bench/, the root package, the declaring package itself);
// tests do not, since the loader never reads _test.go files.
//
// The rule is decided over the whole module, never over the load:
// identifiers are keyed by package path, receiver type and name,
// because a package loaded from source and the same package read back
// from export data yield distinct types.Objects. A method also counts
// as used when its type has, by name and signature, every method of
// some interface declared in the module or its imports (heap.Interface,
// fmt.Stringer, sched.Source), because a call through that interface
// never names the concrete method.
var DeadexportAnalyzer = &Analyzer{
	Name:      "deadexport",
	Doc:       "flag exported identifiers in internal/... and the root package that no non-test file of the module uses",
	RunModule: runDeadexport,
}

// exportDecl is one exported declaration under the rule.
type exportDecl struct {
	pkg   *Package
	ident *ast.Ident
	span  ast.Node // its own declaration: uses inside do not count
}

func runDeadexport(pass *ModulePass) {
	decls := map[string]*exportDecl{}
	// A method's receiver names its type as part of the type's own
	// declaration, not as a use of it.
	recvs := map[string][]ast.Node{}
	for _, pkg := range pass.Targets {
		if pkg.ImportPath != pass.Path && !strings.HasPrefix(pkg.ImportPath, pass.Path+"/internal/") {
			continue
		}
		declare := func(key string, id *ast.Ident, span ast.Node) {
			if id.IsExported() {
				decls[key] = &exportDecl{pkg: pkg, ident: id, span: span}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					if decl.Recv != nil {
						typ := pkg.ImportPath + "." + recvTypeName(fn)
						recvs[typ] = append(recvs[typ], decl.Recv)
					}
					declare(objectKey(fn), decl.Name, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(pkg.ImportPath+"."+spec.Name.Name, spec.Name, spec)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(pkg.ImportPath+"."+id.Name, id, spec)
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return
	}

	used := map[string]bool{}
	for _, pkg := range pass.Module {
		for id, obj := range pkg.Info.Uses {
			key := objectKey(obj)
			d := decls[key]
			if d == nil || used[key] {
				continue
			}
			within := func(n ast.Node) bool { return encloses(n, id.Pos()) }
			if d.pkg.ImportPath == pkg.ImportPath && (within(d.span) || slices.ContainsFunc(recvs[key], within)) {
				continue
			}
			used[key] = true
		}
	}
	markInterfaceMethods(pass, decls, used)

	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if d := decls[key]; !used[key] {
			pass.Reportf(d.pkg, d.ident.Pos(),
				"exported %s is used by no non-test file of the module: delete it or move it into a _test.go file",
				key[len(d.pkg.ImportPath)+1:])
		}
	}
}

func encloses(n ast.Node, pos token.Pos) bool { return n.Pos() <= pos && pos < n.End() }

// objectKey names a package-level object or method by package path,
// receiver type and name, which stays the same whether the object was
// checked from source or read from export data. It returns "" for
// anything else (locals, fields, builtins).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := recvTypeName(fn.Origin()); recv != "" {
			return fn.Pkg().Path() + "." + recv + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// markInterfaceMethods marks every still-unused method whose receiver
// type has, by name and signature, all methods of an interface declared
// in the module's packages or anything they import; the interface's
// methods are then reachable through dynamic calls the Uses map never
// records.
func markInterfaceMethods(pass *ModulePass, decls map[string]*exportDecl, used map[string]bool) {
	// Receiver types of unused methods, keyed like their methods' keys.
	recvs := map[string]*types.Named{}
	for key, d := range decls {
		if fn, ok := d.pkg.Info.Defs[d.ident].(*types.Func); ok && !used[key] {
			if n := recvNamed(fn); n != nil {
				recvs[d.pkg.ImportPath+"."+n.Obj().Name()] = n
			}
		}
	}
	if len(recvs) == 0 {
		return
	}

	var ifaces [][]string
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ms := make([]string, it.NumMethods())
			for i := range ms {
				ms[i] = sigOf(it.Method(i))
			}
			ifaces = append(ifaces, ms)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pass.Module {
		walk(pkg.Types)
		// Interface literals, e.g. x.(interface{ Unwrap() error }).
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}

	for prefix, n := range recvs {
		have := map[string]bool{}
		mset := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < mset.Len(); i++ {
			have[sigOf(mset.At(i).Obj().(*types.Func))] = true
		}
		for _, iface := range ifaces {
			if slices.ContainsFunc(iface, func(m string) bool { return !have[m] }) {
				continue
			}
			for _, m := range iface {
				used[prefix+"."+m[:strings.IndexByte(m, ' ')]] = true
			}
		}
	}
}

// sigOf renders a method as "Name (params) (results)" with parameter
// names dropped and packages spelled by path, so the same method reads
// the same from source and from export data.
func sigOf(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(t.At(i).Type(), func(p *types.Package) string { return p.Path() }))
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
