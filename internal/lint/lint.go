// Package lint is fdwlint's engine: a small, stdlib-only static
// analysis framework plus the ten repo-specific analyzers that guard
// FDW's determinism, durability, observability, and least-code
// invariants (DESIGN.md §9).
//
// The analyzers are:
//
//	wallclock   — no wall-clock reads or timers outside the allowlist;
//	              simulated code must use sim.Kernel's clock.
//	globalrand  — no math/rand or crypto/rand outside internal/sim,
//	              which owns the deterministic RNG.
//	maporder    — no order-sensitive work (appends, writes, sim events,
//	              RNG draws, obs records) inside iteration over a map,
//	              unless the keys are collected and sorted.
//	obsflow     — values read from internal/obs snapshots must not
//	              flow into conditions, loop bounds, or variables
//	              outside the exporter allowlist: observability
//	              records, it never decides.
//	atomicwrite — no direct os.Create/os.WriteFile/os.OpenFile/
//	              os.CreateTemp outside internal/core/atomicfile:
//	              durable artifacts land via temp+fsync+rename.
//	seamguard   — calls through nil-off hook fields (nil-checked func
//	              fields, *Hook interfaces, obs registries) must be
//	              dominated by a nil check in the same function.
//	floatorder  — float +=/-= reductions must not be ordered by map
//	              iteration, channel arrival, or goroutine completion.
//	errdrop     — errors from Close/Flush/Sync/Write/Commit on durable
//	              write handles, and from os.Rename, must be checked.
//	globalstate — no package-level sync.Map or sync/atomic var, and no
//	              package-level var assigned outside its declaration
//	              and init: caches and counters belong to their run.
//	deadexport  — every exported identifier and method in internal/...
//	              must have a non-test caller in the module; the one
//	              module-wide analyzer.
//
// A diagnostic on line N is suppressed by a directive of the form
//
//	//lint:allow <analyzer> <reason>
//
// on line N (trailing) or line N-1 (its own line). The reason is
// mandatory; malformed, unknown-analyzer, and unused directives are
// themselves diagnostics (analyzer name "directive"), so every
// suppression in the tree documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding. File is as recorded in the
// FileSet (absolute for loader-produced packages).
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Format renders the diagnostic as "file:line analyzer: message" with
// the file path made relative to base when possible.
func (d Diagnostic) Format(base string) string {
	file := d.File
	if base != "" {
		if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return fmt.Sprintf("%s:%d %s: %s", file, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one named check. Most run over one type-checked package
// at a time (Run); a module-wide analyzer (RunModule) instead sees the
// loaded packages together with every package of their module.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one (package, analyzer) run and collects reports.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-wide analyzer run over one module.
// Targets are the loaded packages it may report on; Module is every
// package of their main module, Targets included, so a finding never
// depends on how narrow the load was.
type ModulePass struct {
	Path     string // module path, e.g. "fdw"
	Targets  []*Package
	Module   []*Package
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos in pkg.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	(&Pass{Pkg: pkg, analyzer: p.analyzer, report: p.report}).Reportf(pos, format, args...)
}

// Analyzers returns the full fdwlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer, GlobalrandAnalyzer, MaporderAnalyzer, ObsflowAnalyzer,
		AtomicwriteAnalyzer, SeamguardAnalyzer, FloatorderAnalyzer, ErrdropAnalyzer,
		GlobalstateAnalyzer, DeadexportAnalyzer,
	}
}

// directiveName is the pseudo-analyzer that owns diagnostics about the
// //lint:allow directives themselves. It cannot be suppressed.
const directiveName = "directive"

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
	used     bool
}

const directivePrefix = "//lint:allow"

// parseDirectives scans a file's comments for //lint:allow directives,
// reporting malformed ones through report.
func parseDirectives(pass *Pass, f *ast.File, known map[string]bool, report func(Diagnostic)) []*directive {
	var ds []*directive
	fset := pass.Pkg.Fset
	bad := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		report(Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column,
			Analyzer: directiveName, Message: fmt.Sprintf(format, args...)})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := c.Text[len(directivePrefix):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:allowing — not a directive
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				bad(c.Pos(), "malformed %s: missing analyzer name and reason", directivePrefix)
				continue
			}
			name := fields[0]
			if !known[name] {
				bad(c.Pos(), "%s names unknown analyzer %q", directivePrefix, name)
				continue
			}
			reason := strings.TrimSpace(strings.Join(fields[1:], " "))
			if reason == "" {
				bad(c.Pos(), "%s %s: a reason is mandatory", directivePrefix, name)
				continue
			}
			p := fset.Position(c.Pos())
			ds = append(ds, &directive{
				analyzer: name, reason: reason,
				file: p.Filename, line: p.Line, pos: c.Pos(),
			})
		}
	}
	return ds
}

// Run executes the analyzers over the packages, applies //lint:allow
// suppression, and returns the surviving diagnostics sorted by
// position. Unused and malformed directives surface as "directive"
// diagnostics. The error reports a module that module-wide analyzers
// needed but could not load.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	var diags []Diagnostic
	var directiveDiags []Diagnostic
	var directives []*directive
	for _, pkg := range pkgs {
		dirPass := &Pass{Pkg: pkg}
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(dirPass, f,
				known, func(d Diagnostic) { directiveDiags = append(directiveDiags, d) })...)
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Pkg: pkg, analyzer: a,
				report: func(d Diagnostic) { diags = append(diags, d) }}
			a.Run(pass)
		}
	}
	if err := runModule(pkgs, analyzers, func(d Diagnostic) { diags = append(diags, d) }); err != nil {
		return nil, err
	}

	// A directive suppresses matching diagnostics on its own line and
	// the line below it (trailing and stand-alone placement).
	suppress := map[string]*directive{}
	for _, d := range directives {
		suppress[fmt.Sprintf("%s:%d:%s", d.file, d.line, d.analyzer)] = d
		suppress[fmt.Sprintf("%s:%d:%s", d.file, d.line+1, d.analyzer)] = d
	}
	kept := diags[:0]
	for _, d := range diags {
		if dir, ok := suppress[fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Analyzer)]; ok {
			dir.used = true
			continue
		}
		kept = append(kept, d)
	}
	diags = append(kept, directiveDiags...)

	for _, d := range directives {
		if !d.used && ran[d.analyzer] {
			p := token.Position{Filename: d.file, Line: d.line}
			diags = append(diags, Diagnostic{File: p.Filename, Line: p.Line, Col: 1,
				Analyzer: directiveName,
				Message:  fmt.Sprintf("unused %s %s (%s): nothing to suppress here", directivePrefix, d.analyzer, d.reason)})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// runModule runs the module-wide analyzers once per main module that
// the packages belong to, loading the rest of that module first.
func runModule(pkgs []*Package, analyzers []*Analyzer, report func(Diagnostic)) error {
	var mods []*module
	targets := map[*module][]*Package{}
	for _, pkg := range pkgs {
		if m := pkg.module; m != nil {
			if targets[m] == nil {
				mods = append(mods, m)
			}
			targets[m] = append(targets[m], pkg)
		}
	}
	for _, m := range mods {
		var all []*Package
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			if all == nil {
				var err error
				if all, err = m.packages(); err != nil {
					return err
				}
			}
			a.RunModule(&ModulePass{Path: m.path, Targets: targets[m], Module: all,
				analyzer: a, report: report})
		}
	}
	return nil
}
