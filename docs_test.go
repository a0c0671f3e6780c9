package fdw_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// citingDocs are the documents whose test names, backticked
// identifiers and backticked paths TestDocsCiteLiveNames checks.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// sectionRefSkipped reports whether path's DESIGN section references go
// unchecked: a Markdown file at the root other than DESIGN.md and the
// citing docs is history (the change log, the roadmap and the like),
// written against the numbering of its day. bench/ is skipped as a
// directory.
func sectionRefSkipped(path string) bool {
	if filepath.Dir(path) != "." || filepath.Ext(path) != ".md" || path == "DESIGN.md" {
		return false
	}
	for _, doc := range citingDocs {
		if path == doc {
			return false
		}
	}
	return true
}

var (
	testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)
	spanRE     = regexp.MustCompile("`([^`]+)`")
	pkgIdentRE = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// A section reference may wrap onto a comment's next line, and may
	// list or span further sections: "§9 and §14", "§2/§5", "§10–11".
	sectionRefRE = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§\s?(\d+)((?:\s*(?:/|,|and|or)\s*§\s?\d+|\s*[–-]\s*\d+)*)`)
	numberRE     = regexp.MustCompile(`\d+`)
	headingRE    = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocsCiteLiveNames keeps the documents' citations true. It fails,
// naming file, line and token, on
//  1. a Test/Fuzz/Benchmark/Example name nothing in the module declares;
//  2. a backticked pkg.Name, pkg a module package's name, that no file
//     of that package declares, or a pkg.Type.Member whose Type has no
//     such method, field or interface method, promoted ones included;
//  3. a backticked repo-relative path that does not exist;
//  4. a DESIGN section reference, in any file of the tree but the
//     history files and bench/, to a section DESIGN.md does not have.
func TestDocsCiteLiveNames(t *testing.T) {
	decls := moduleDecls(t)
	metrics := benchMetrics(t)
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dead := range deadCitations(string(text), decls, metrics) {
			t.Errorf("%s:%s", doc, dead)
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if sectionRefSkipped(path) {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range sectionRefRE.FindAllSubmatchIndex(text, -1) {
			line := 1 + bytes.Count(text[:m[0]], []byte("\n"))
			for _, n := range numberRE.FindAll(text[m[2]:m[5]], -1) {
				if !sections[string(n)] {
					t.Errorf("%s:%d: %q: DESIGN.md has no section %s", path, line, text[m[0]:m[1]], n)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// decls is what the module declares, by package name ("fdw" for the
// root): each package's package-level names and types, and the set of
// all package-level names.
type decls struct {
	pkgs  map[string]map[string]bool
	types map[string]map[string]*typeDecl
	names map[string]bool
}

// typeDecl is what a selector on one package-level type can reach: its
// own fields, methods and interface methods, and the types it embeds or
// aliases ({package, type}), whose members it promotes.
type typeDecl struct {
	members map[string]bool
	embeds  [][2]string
}

// typeOf returns pkg's declaration record for type name, creating it:
// a method may be parsed before its type.
func (d decls) typeOf(pkg, name string) *typeDecl {
	if d.types[pkg] == nil {
		d.types[pkg] = map[string]*typeDecl{}
	}
	td := d.types[pkg][name]
	if td == nil {
		td = &typeDecl{members: map[string]bool{}}
		d.types[pkg][name] = td
	}
	return td
}

// hasMember reports whether pkg.typ, or a type it embeds or aliases,
// declares member.
func (d decls) hasMember(pkg, typ, member string, seen map[[2]string]bool) bool {
	key := [2]string{pkg, typ}
	td := d.types[pkg][typ]
	if td == nil || seen[key] {
		return false
	}
	seen[key] = true
	if td.members[member] {
		return true
	}
	for _, e := range td.embeds {
		if d.hasMember(e[0], e[1], member, seen) {
			return true
		}
	}
	return false
}

// A pkg.Type.Member citation resolves to a method, a field, an
// interface method or a member promoted through an embedded type or
// reached through an alias (the fdw façade's types).
func TestDeadCitationsResolveMembers(t *testing.T) {
	d := moduleDecls(t)
	live := "`sim.Kernel.Step` `htcondor.Schedd.SubmitGate` `ospool.RecoveryHook.VetoMatch` " +
		"`faults.SiteOutage.Site` `faults.SiteOutage.Window` `faults.SiteOutage.From` `faults.SiteOutage.Contains` " +
		"`fdw.Workflow.Start` `fdw.Config.Waveforms`"
	if dead := deadCitations(live, d, nil); len(dead) > 0 {
		t.Errorf("live members reported dead: %q", dead)
	}
	want := []string{
		"1: sim.Kernel.NoSuch: sim.Kernel has no method or field NoSuch",
		"1: faults.SiteOutage.NoSuch: faults.SiteOutage has no method or field NoSuch",
		"1: sim.NewKernel.Step: sim.NewKernel has no method or field Step",
		"1: sim.NoSuch: package sim declares no NoSuch",
	}
	got := deadCitations("`sim.Kernel.NoSuch` `faults.SiteOutage.NoSuch` `sim.NewKernel.Step` `sim.NoSuch.Step`", d, nil)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead members reported as\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// moduleDecls parses every Go file of the module, tests included.
func moduleDecls(t *testing.T) decls {
	t.Helper()
	d := decls{pkgs: map[string]map[string]bool{}, types: map[string]map[string]*typeDecl{}, names: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path != "." && (strings.HasPrefix(de.Name(), ".") || de.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		declare := func(id *ast.Ident) {
			d.pkgs[pkg][id.Name] = true
			d.names[id.Name] = true
		}
		imports := map[string]string{} // local name → package name
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				imports[imp.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		// typeName resolves a receiver, embedded or aliased type
		// expression to {package, type}.
		typeName := func(x ast.Expr) ([2]string, bool) {
			for {
				switch e := x.(type) {
				case *ast.StarExpr:
					x = e.X
				case *ast.IndexExpr:
					x = e.X
				case *ast.IndexListExpr:
					x = e.X
				case *ast.Ident:
					return [2]string{pkg, e.Name}, true
				case *ast.SelectorExpr:
					if id, ok := e.X.(*ast.Ident); ok && imports[id.Name] != "" {
						return [2]string{imports[id.Name], e.Sel.Name}, true
					}
					return [2]string{}, false
				default:
					return [2]string{}, false
				}
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name)
				} else if recv, ok := typeName(decl.Recv.List[0].Type); ok {
					d.typeOf(pkg, recv[1]).members[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
						td := d.typeOf(pkg, spec.Name.Name)
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						default:
							if target, ok := typeName(typ); ok && spec.Assign.IsValid() {
								td.embeds = append(td.embeds, target)
							}
						}
						for _, field := range fields {
							for _, id := range field.Names {
								td.members[id.Name] = true
							}
							if embedded, ok := typeName(field.Type); ok && len(field.Names) == 0 {
								td.members[embedded[1]] = true
								td.embeds = append(td.embeds, embedded)
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(d.pkgs, "main") // commands are not cited as main.Name
	return d
}

// benchMetrics returns the per-layer metric names BENCHMARK.json
// declares. They read like identifiers (`sim.simsecs_per_op`), and a
// document citing one cites the benchmark's output, not a package.
func benchMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
	}
	return metrics
}

// deadCitations returns "line: token: reason" for each citation in one
// document whose target does not exist. Fenced code blocks are checked
// for test names only: their pkg.Name tokens are often local variables.
func deadCitations(text string, d decls, metrics map[string]bool) []string {
	var dead []string
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		for _, name := range testNameRE.FindAllString(line, -1) {
			if !d.names[name] {
				dead = append(dead, fmt.Sprintf("%d: %s: nothing in the module declares it", i+1, name))
			}
		}
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	for _, m := range spanRE.FindAllStringSubmatchIndex(prose, -1) {
		line := 1 + strings.Count(prose[:m[0]], "\n")
		span := prose[m[2]:m[3]]
		for _, id := range pkgIdentRE.FindAllStringSubmatch(span, -1) {
			pkg, name, member := id[1], id[2], id[3]
			declared, isPkg := d.pkgs[pkg]
			switch {
			case !isPkg || metrics[pkg+"."+name]:
			case !declared[name]:
				dead = append(dead, fmt.Sprintf("%d: %s.%s: package %s declares no %s", line, pkg, name, pkg, name))
			case member != "" && !d.hasMember(pkg, name, member, map[[2]string]bool{}):
				dead = append(dead, fmt.Sprintf("%d: %s.%s.%s: %s.%s has no method or field %s", line, pkg, name, member, pkg, name, member))
			}
		}
		for _, tok := range strings.FieldsFunc(span, func(r rune) bool {
			return unicode.IsSpace(r) || strings.ContainsRune("(),;`'\"", r)
		}) {
			if path, ok := repoPath(tok); ok {
				if found, _ := filepath.Glob(path); len(found) == 0 {
					dead = append(dead, fmt.Sprintf("%d: %s: no such path", line, tok))
				}
			}
		}
	}
	return dead
}

// repoPath reports whether tok names a path in the repository: it
// contains a slash and its first element is an entry of the root
// directory. Templates (<x>, {id}, ./...) are not paths.
func repoPath(tok string) (string, bool) {
	path := strings.TrimRight(strings.TrimPrefix(tok, "./"), ".:/")
	first, _, ok := strings.Cut(path, "/")
	if !ok || first == "" || strings.ContainsAny(path, "<>{}$=") || strings.Contains(path, "...") {
		return "", false
	}
	if _, err := os.Stat(first); err != nil {
		return "", false
	}
	return path, true
}
