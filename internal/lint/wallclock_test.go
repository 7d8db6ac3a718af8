package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wallClockFuncs are the time package's ways to read or wait on the wall
// clock. Code that runs on a node's clock reads clock.Clock instead, so a
// clock.Virtual owns every instant and every wait.
var wallClockFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"}

// wallClockUses counts, per file, the uses of wallClockFuncs in non-test
// code under internal/ outside internal/clock (which wraps the wall clock)
// and internal/leakcheck (which waits for goroutines on it). The gateway
// sets its write deadlines on the real sockets it serves; the experiments
// time their wall-clock arms. The list only shrinks: a file that drops a
// use lowers its count here in the same change.
var wallClockUses = map[string]int{
	"internal/experiments/experiments.go":          31,
	"internal/experiments/gateway_experiment.go":   6,
	"internal/experiments/gbn.go":                  2,
	"internal/experiments/scheduler_experiment.go": 5,
	"internal/experiments/table.go":                2,
	"internal/experiments/virtual.go":              2,
	"internal/gateway/shard.go":                    2,
}

// TestNoWallClock holds the wall-clock reads and waits under internal/ to
// wallClockUses.
func TestNoWallClock(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	got := map[string]int{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case filepath.Join(root, "internal", "clock"), filepath.Join(root, "internal", "leakcheck"):
				return filepath.SkipDir
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if n := wallClockCalls(t, fset, f); n > 0 {
			got[filepath.ToSlash(rel)] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for file := range got {
		files = append(files, file)
	}
	slices.Sort(files)
	for _, file := range files {
		switch want, listed := wallClockUses[file]; {
		case !listed:
			t.Errorf("%s reads the wall clock %d times: read the node's clock.Clock instead", file, got[file])
		case got[file] > want:
			t.Errorf("%s reads the wall clock %d times, %d listed: read the node's clock.Clock instead", file, got[file], want)
		case got[file] < want:
			t.Errorf("%s reads the wall clock %d times, %d listed: lower its count in wallClockUses", file, got[file], want)
		}
	}
	for file := range wallClockUses {
		if _, ok := got[file]; !ok {
			t.Errorf("%s no longer reads the wall clock: drop it from wallClockUses", file)
		}
	}
}

// wallClockCalls counts f's references to wallClockFuncs through its
// import of package time, called or not.
func wallClockCalls(t *testing.T, fset *token.FileSet, f *ast.File) int {
	name := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "time" {
			continue
		}
		name = "time"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			t.Errorf("%s dot-imports package time", fset.Position(imp.Pos()))
		}
	}
	if name == "" || name == "_" {
		return 0
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name && pkg.Obj == nil &&
			slices.Contains(wallClockFuncs, sel.Sel.Name) {
			n++
		}
		return true
	})
	return n
}
