package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// bareGoroutines is every `go` statement in non-test code under internal/
// outside internal/clock, as "file:enclosing function", one entry per
// statement. These goroutines are invisible to clock.Virtual: the simulator
// cannot own their ordering. ROADMAP's first item registers or eliminates
// them, so the list only shrinks; new concurrency goes through clock.Go.
var bareGoroutines = []string{
	"internal/gateway/shard.go:service",
	"internal/gateway/wire.go:Serve",
	"internal/transport/udp.go:Join",
	"internal/transport/udp.go:NewUDP",
}

// TestBareGoroutinesAreListed holds the set of bare go statements to
// bareGoroutines.
func TestBareGoroutinesAreListed(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "internal", "clock") || d.Name() == "testdata" {
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
		for _, decl := range f.Decls {
			where := "(package scope)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, isGo := n.(*ast.GoStmt); isGo {
					got = append(got, filepath.ToSlash(rel)+":"+where)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, bareGoroutines) {
		t.Errorf("bare go statements under internal/ = %v, want exactly %v: start goroutines through clock.Go so a virtual clock sees them",
			got, bareGoroutines)
	}
}
