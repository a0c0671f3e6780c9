package par

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// serial is the spec: the loop Each stands for, stopping at the first
// error. It returns how many indices it ran and that error.
func serial(n int, job func(i int) error) (int, error) {
	for i := 0; i < n; i++ {
		if err := job(i); err != nil {
			return i + 1, err
		}
	}
	return n, nil
}

// checkEach runs Each(workers, n) with jobs failing at the indices in
// fail, and holds it to serial: the same error, every index below the
// first failure run exactly once, no index run twice, and worker()
// called at most min(workers, n) times.
func checkEach(t *testing.T, workers, n int, fail map[int]bool) {
	t.Helper()
	errs := make([]error, n)
	for i := range fail {
		errs[i] = fmt.Errorf("job %d", i)
	}
	job := func(i int) error { return errs[i] }
	ran, want := serial(n, job)

	runs := make([]atomic.Int32, n)
	var factories atomic.Int32
	got := Each(workers, n, func() func(int) error {
		factories.Add(1)
		return func(i int) error {
			runs[i].Add(1)
			return job(i)
		}
	})
	if got != want {
		t.Fatalf("Each(%d, %d) fail %v = %v, serial loop returns %v", workers, n, fail, got, want)
	}
	for i := range runs {
		switch c := runs[i].Load(); {
		case c > 1:
			t.Fatalf("Each(%d, %d): index %d ran %d times", workers, n, i, c)
		case c == 0 && i < ran:
			t.Fatalf("Each(%d, %d) fail %v: index %d below the first failure never ran", workers, n, fail, i)
		}
	}
	limit := workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if c := int(factories.Load()); c > min(limit, n) {
		t.Fatalf("Each(%d, %d) called worker() %d times, want at most %d", workers, n, c, min(limit, n))
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, w := range []int{-1, 0, 1, 2, 8, n + 3} {
			checkEach(t, w, n, nil)
		}
	}
}

func TestEachReturnsSerialError(t *testing.T) {
	for _, fail := range []map[int]bool{
		{0: true},
		{4: true},
		{999: true},
		{3: true, 500: true},
		{700: true, 10: true, 11: true},
	} {
		for _, w := range []int{1, 2, 8} {
			for _, n := range []int{5, 1000} {
				planted := map[int]bool{}
				for i := range fail {
					if i < n {
						planted[i] = true
					}
				}
				checkEach(t, w, n, planted)
			}
		}
	}
}

// TestEachWorkerScratchIsPrivate: the function worker() returns is
// only ever called on one goroutine, so scratch it closes over needs
// no lock (the race detector checks the unguarded writes).
func TestEachWorkerScratchIsPrivate(t *testing.T) {
	sums := make([]int, 64)
	err := Each(4, len(sums), func() func(int) error {
		scratch := make([]int, 8)
		return func(i int) error {
			for k := range scratch {
				scratch[k] = i + k
			}
			for _, v := range scratch {
				sums[i] += v
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if want := 8*i + 28; s != want {
			t.Fatalf("sums[%d] = %d, want %d", i, s, want)
		}
	}
}

// FuzzEach decodes workers, n and a failure set from bytes and checks
// Each against the serial loop.
func FuzzEach(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 200})
	f.Add([]byte{0, 7, 3})
	f.Add([]byte{9, 255, 40, 41, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		workers := int(data[0]%20) - 2 // −2..17
		n := int(data[1])
		fail := map[int]bool{}
		for _, b := range data[2:] {
			if int(b) < n {
				fail[int(b)] = true
			}
		}
		checkEach(t, workers, n, fail)
	})
}

// TestOneFanOut makes the fan-out rule executable: outside test files,
// testdata and this package, the module has no go statement, so every
// goroutine the program starts is one of Each's workers.
func TestOneFanOut(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	self := filepath.Join(root, "internal", "par")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go command's own exclusions, plus this package.
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || path == self) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pos := fset.Position(g.Go)
				rel, _ := filepath.Rel(root, pos.Filename)
				t.Errorf("%s:%d: go statement outside internal/par; fan out with par.Each", rel, pos.Line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files under %s; is this the module root?", files, root)
	}
}
