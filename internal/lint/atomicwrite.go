package lint

import (
	"go/ast"
)

// atomicfilePath is the one package allowed to create output files
// directly: it is the temp+fsync+rename implementation everything else
// must go through.
const atomicfilePath = modulePath + "/internal/core/atomicfile"

// atomicwriteForbidden are the os functions that create or truncate a
// destination path in place. A crash mid-write leaves a partial file
// under the artifact's real name, which resumable shards and warm
// caches would then trust. os.Open (read-only) stays available.
var atomicwriteForbidden = map[string]string{
	"Create":     "truncates the destination before writing",
	"WriteFile":  "truncates the destination before writing",
	"OpenFile":   "can truncate or append to the destination in place",
	"CreateTemp": "leaks an orphan temp file unless every failure path removes it",
}

// AtomicwriteAnalyzer forbids direct file creation outside
// internal/core/atomicfile. Durable artifacts — manifests, .npy caches,
// CSVs, metrics dumps, DAG/submit files — must land via temp+rename so
// a kill at any instant leaves either the old complete file or the new
// complete file (DESIGN.md §13).
var AtomicwriteAnalyzer = &Analyzer{
	Name: "atomicwrite",
	Doc:  "forbid os.Create/os.WriteFile/os.OpenFile/os.CreateTemp outside internal/core/atomicfile; durable artifacts go through atomicfile",
	Run: func(pass *Pass) {
		if pass.Pkg.ImportPath == atomicfilePath {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Pkg.Info, call)
				if funcPkgPath(fn) != "os" {
					return true
				}
				why, bad := atomicwriteForbidden[fn.Name()]
				if !bad {
					return true
				}
				pass.Reportf(call.Pos(),
					"os.%s %s: write durable artifacts through atomicfile.Create/atomicfile.WriteFile (temp+fsync+rename)",
					fn.Name(), why)
				return true
			})
		}
	},
}
