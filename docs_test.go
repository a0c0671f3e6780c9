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
	pkgIdentRE = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
	// A section reference may wrap onto a comment's next line, and may
	// list or span further sections: "§9 and §14", "§2/§5", "§10–11".
	sectionRefRE = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§\s?(\d+)((?:\s*(?:/|,|and|or)\s*§\s?\d+|\s*[–-]\s*\d+)*)`)
	numberRE     = regexp.MustCompile(`\d+`)
	headingRE    = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocsCiteLiveNames keeps the documents' citations true. It fails,
// naming file, line and token, on
//  1. a Test/Fuzz/Benchmark/Example name nothing in the module declares;
//  2. a backticked pkg.Name (or the pkg.Type of pkg.Type.Method), pkg a
//     module package's name, that no file of that package declares;
//  3. a backticked repo-relative path that does not exist;
//  4. a DESIGN section reference, in any file of the tree but the
//     history files and bench/, to a section DESIGN.md does not have.
func TestDocsCiteLiveNames(t *testing.T) {
	pkgs, names := moduleDecls(t)
	metrics := benchMetrics(t)
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dead := range deadCitations(string(text), pkgs, names, metrics) {
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

// moduleDecls parses every Go file of the module, tests included, and
// returns each package's package-level names by package name ("fdw"
// for the root) and the set of all package-level names.
func moduleDecls(t *testing.T) (map[string]map[string]bool, map[string]bool) {
	t.Helper()
	pkgs := map[string]map[string]bool{}
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		if pkgs[pkg] == nil {
			pkgs[pkg] = map[string]bool{}
		}
		declare := func(id *ast.Ident) {
			pkgs[pkg][id.Name] = true
			names[id.Name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
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
	delete(pkgs, "main") // commands are not cited as main.Name
	return pkgs, names
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
func deadCitations(text string, pkgs map[string]map[string]bool, names, metrics map[string]bool) []string {
	var dead []string
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		for _, name := range testNameRE.FindAllString(line, -1) {
			if !names[name] {
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
			pkg, name := id[1], id[2]
			declared, isPkg := pkgs[pkg]
			if !isPkg || declared[name] || metrics[pkg+"."+name] {
				continue
			}
			dead = append(dead, fmt.Sprintf("%d: %s.%s: package %s declares no %s", line, pkg, name, pkg, name))
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
