package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// fixtureLoader is shared across tests so `go list` runs once per
// fixture, not once per subtest rerun.
var fixtureLoader = &Loader{}

func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := fixtureLoader.Load("./testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture %s: type error: %v", name, terr)
		}
	}
	return pkgs
}

// runGolden analyzes one fixture package and compares the formatted
// diagnostics against testdata/golden/<fixture>.golden. A missing
// golden file means the fixture must be clean.
func runGolden(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	diags, err := Run(loadFixture(t, fixture), analyzers)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, fixture, diags)
}

func compareGolden(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	base, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, d := range diags {
		fmt.Fprintln(&buf, d.Format(base))
	}
	golden := filepath.Join("testdata", "golden", fixture+".golden")
	if *update {
		if buf.Len() == 0 {
			os.Remove(golden)
			return
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		if os.IsNotExist(err) {
			want = nil
		} else {
			t.Fatal(err)
		}
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("fixture %s diagnostics mismatch (run go test -run %s -update to regenerate)\ngot:\n%swant:\n%s",
			fixture, t.Name(), got, want)
	}
}

// deadexportFixture is a module of its own (testdata/src/deadexport
// has a go.mod), because deadexport judges a whole module and the fdw
// module's "./..." never reaches into testdata.
var deadexportFixture = &Loader{Dir: filepath.Join("testdata", "src", "deadexport")}

func lintDeadexport(t *testing.T, pattern string) []Diagnostic {
	t.Helper()
	pkgs, err := deadexportFixture.Load(pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	diags, err := Run(pkgs, []*Analyzer{DeadexportAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestWallclockBad(t *testing.T)   { runGolden(t, "wallclock_bad", WallclockAnalyzer) }
func TestWallclockClean(t *testing.T) { runGolden(t, "wallclock_clean", WallclockAnalyzer) }
func TestWallclockAllow(t *testing.T) { runGolden(t, "wallclock_allow", WallclockAnalyzer) }

func TestGlobalrandBad(t *testing.T)   { runGolden(t, "globalrand_bad", GlobalrandAnalyzer) }
func TestGlobalrandClean(t *testing.T) { runGolden(t, "globalrand_clean", GlobalrandAnalyzer) }

func TestMaporderBad(t *testing.T)   { runGolden(t, "maporder_bad", MaporderAnalyzer) }
func TestMaporderClean(t *testing.T) { runGolden(t, "maporder_clean", MaporderAnalyzer) }

func TestObsflowBad(t *testing.T)   { runGolden(t, "obsflow_bad", ObsflowAnalyzer) }
func TestObsflowClean(t *testing.T) { runGolden(t, "obsflow_clean", ObsflowAnalyzer) }

func TestAtomicwriteBad(t *testing.T)   { runGolden(t, "atomicwrite_bad", AtomicwriteAnalyzer) }
func TestAtomicwriteClean(t *testing.T) { runGolden(t, "atomicwrite_clean", AtomicwriteAnalyzer) }

func TestSeamguardBad(t *testing.T)   { runGolden(t, "seamguard_bad", SeamguardAnalyzer) }
func TestSeamguardClean(t *testing.T) { runGolden(t, "seamguard_clean", SeamguardAnalyzer) }

func TestFloatorderBad(t *testing.T)   { runGolden(t, "floatorder_bad", FloatorderAnalyzer) }
func TestFloatorderClean(t *testing.T) { runGolden(t, "floatorder_clean", FloatorderAnalyzer) }

func TestErrdropBad(t *testing.T)   { runGolden(t, "errdrop_bad", ErrdropAnalyzer) }
func TestErrdropClean(t *testing.T) { runGolden(t, "errdrop_clean", ErrdropAnalyzer) }

func TestGlobalstateBad(t *testing.T)   { runGolden(t, "globalstate_bad", GlobalstateAnalyzer) }
func TestGlobalstateClean(t *testing.T) { runGolden(t, "globalstate_clean", GlobalstateAnalyzer) }

// TestDeadexport pins deadexport over a four-package module: dead
// functions, methods, constants and types are flagged, including ones
// only tests or their own declaration name, in internal/ and in the
// root package; uses from another package, from a command, from the
// declaring package, and through interfaces (one of the module's, one
// of the standard library's) are not; a reasoned directive suppresses
// and an unused one is reported.
func TestDeadexport(t *testing.T) { compareGolden(t, "deadexport", lintDeadexport(t, "./...")) }

// TestDeadexportNarrowLoad checks the rule is decided over the module,
// not over the load: linting one package reports exactly the
// whole-module findings that fall in it, and no others.
func TestDeadexportNarrowLoad(t *testing.T) {
	byPkg := map[string][]Diagnostic{}
	for _, d := range lintDeadexport(t, "./...") {
		dir := filepath.Base(filepath.Dir(d.File))
		byPkg[dir] = append(byPkg[dir], d)
	}
	for _, pkg := range []string{".", "internal/a", "internal/b", "cmd/c"} {
		got := lintDeadexport(t, "./"+pkg)
		want := byPkg[filepath.Base(filepath.Join("deadexport", pkg))]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s alone: got %v, want the whole-module findings in it %v", pkg, got, want)
		}
	}
	if len(byPkg["a"]) == 0 || len(byPkg["deadexport"]) == 0 {
		t.Fatal("fixture produced no findings in internal/a or the root package")
	}
}

// TestDirectiveDiagnostics runs the full suite so malformed, unknown,
// and unused //lint:allow directives all surface.
func TestDirectiveDiagnostics(t *testing.T) { runGolden(t, "directive_bad") }

// TestDirectiveNewAnalyzers pins //lint:allow behaviour against the
// durability analyzers: a reasoned suppression silences the line, a
// reason-less or wrong-analyzer directive leaves the real diagnostic
// standing, and directives with nothing to suppress surface as unused.
func TestDirectiveNewAnalyzers(t *testing.T) { runGolden(t, "directive_new") }

// TestRepoClean is the tree-wide invariant: the repository must lint
// clean under every analyzer, with all suppressions reasoned. This is
// the same run scripts/check.sh performs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	l := &Loader{Dir: "../.."}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, terr)
		}
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.Format(""))
	}
}

// TestClockFuncCoverage pins the forbidden set: if a future Go release
// adds clock functions, this test reminds us to revisit the list.
func TestClockFuncCoverage(t *testing.T) {
	for _, name := range []string{"Now", "Since", "Until", "Sleep", "Tick", "NewTicker", "NewTimer", "After", "AfterFunc"} {
		if !wallclockForbidden[name] {
			t.Errorf("time.%s missing from wallclockForbidden", name)
		}
	}
}
