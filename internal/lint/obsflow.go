package lint

import (
	"go/ast"
	"go/types"
)

// obsflowAllowed may consume metric values: the obs exporters
// themselves, the monitor CLI that renders them, and the benchmark
// harness that turns snapshot deltas into per-layer metrics. Tests are
// exempt by construction (the loader skips _test.go files) — asserting
// on metric values is exactly what tests are for.
var obsflowAllowed = map[string]bool{
	obsPath:                        true,
	modulePath + "/cmd/fdwmon":     true,
	modulePath + "/bench/fdwbench": true,
}

// ObsflowAnalyzer enforces the record-never-decide contract as a flow
// check. The obs instruments expose no getters outside tests, so the
// one way production code reads a metric is a field of a snapshot
// (Registry.Snapshot, ReadSnapshot): such a read must
// not reach a condition, a loop bound, or a variable in non-exporter
// code. Passing a reading straight into a print call or a return is
// reporting and stays legal; branching on one would let
// instrumentation perturb the simulation, which
// TestFiguresIdenticalWithMetricsEnabled exists to rule out.
var ObsflowAnalyzer = &Analyzer{
	Name: "obsflow",
	Doc:  "flag obs snapshot readings flowing into conditions, loop bounds, or variables outside exporters and tests",
	Run: func(pass *Pass) {
		if obsflowAllowed[pass.Pkg.ImportPath] {
			return
		}
		for _, f := range pass.Pkg.Files {
			parents := parentMap(f)
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field := obsField(pass.Pkg.Info, sel)
				if field == "" || insideObsRead(pass.Pkg.Info, parents, sel) {
					return true
				}
				if ctx := flowContext(parents, sel); ctx != "" {
					pass.Reportf(sel.Pos(),
						"obs reading %s flows into %s: observability records, it never decides — only internal/obs exporters, cmd/fdwmon, bench/fdwbench, and tests may consume metric values",
						field, ctx)
				}
				return true
			})
		}
	},
}

// obsField names the snapshot field sel reads ("CounterSnap.Value"),
// or returns "" when sel is not a field of a struct declared in
// internal/obs.
func obsField(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	if v := s.Obj(); v.Pkg() == nil || v.Pkg().Path() != obsPath {
		return ""
	}
	n := named(s.Recv())
	if n == nil {
		return ""
	}
	return n.Obj().Name() + "." + sel.Sel.Name
}

// insideObsRead reports whether sel is only a step of a longer read
// (snap.Counters in snap.Counters[0].Value), which is reported once,
// at its outermost field.
func insideObsRead(info *types.Info, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	for cur := parents[ast.Node(sel)]; cur != nil; cur = parents[cur] {
		switch p := cur.(type) {
		case *ast.SelectorExpr:
			if obsField(info, p) != "" {
				return true
			}
		case *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
		default:
			return false
		}
	}
	return false
}

// flowContext climbs from an obs read toward its statement and names
// the first forbidden context it is part of ("" when the use is legal,
// e.g. an argument to a print call or a return value).
func flowContext(parents map[ast.Node]ast.Node, n ast.Node) string {
	cur := ast.Node(n)
	for {
		parent := parents[cur]
		if parent == nil {
			return ""
		}
		switch p := parent.(type) {
		case *ast.IfStmt:
			if p.Cond == cur {
				return "a condition"
			}
			return ""
		case *ast.ForStmt:
			if p.Cond == cur {
				return "a loop bound"
			}
			return ""
		case *ast.RangeStmt:
			if p.X == cur {
				return "a range expression"
			}
			return ""
		case *ast.SwitchStmt:
			if p.Tag == cur {
				return "a switch condition"
			}
			return ""
		case *ast.CaseClause:
			for _, e := range p.List {
				if e == cur {
					return "a case expression"
				}
			}
			return ""
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != cur {
					continue
				}
				if len(p.Lhs) == len(p.Rhs) && isBlank(p.Lhs[i]) {
					return "" // discarded on purpose
				}
				return "an assignment"
			}
			return ""
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if v != cur {
					continue
				}
				if len(p.Names) == len(p.Values) && p.Names[i].Name == "_" {
					return ""
				}
				return "a variable declaration"
			}
			return ""
		case ast.Stmt, *ast.FuncDecl:
			return ""
		}
		cur = parent
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
