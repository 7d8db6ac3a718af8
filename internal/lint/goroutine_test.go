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

// listedWaitGroups is every sync.WaitGroup in non-test code under internal/
// outside internal/clock, as "file:enclosing declaration", with the reason
// the virtual clock never meets it. A registered goroutine waiting on a
// sync.WaitGroup still counts as runnable, so virtual time stands still
// under it; code that can run on the virtual clock waits on
// clock.WaitGroup. The list only shrinks.
var listedWaitGroups = map[string]string{
	"internal/transport/udp.go:UDP": "real sockets: the UDP transport's readers run on the wall clock only",
}

// TestBareGoroutinesAreListed holds the set of bare go statements to
// bareGoroutines.
func TestBareGoroutinesAreListed(t *testing.T) {
	var got []string
	eachInternalDecl(t, func(site string, decl ast.Decl) {
		ast.Inspect(decl, func(n ast.Node) bool {
			if _, isGo := n.(*ast.GoStmt); isGo {
				got = append(got, site)
			}
			return true
		})
	})
	slices.Sort(got)
	if !slices.Equal(got, bareGoroutines) {
		t.Errorf("bare go statements under internal/ = %v, want exactly %v: start goroutines through clock.Go so a virtual clock sees them",
			got, bareGoroutines)
	}
}

// TestWaitGroupsAreListed holds the set of declarations that use a
// sync.WaitGroup to listedWaitGroups.
func TestWaitGroupsAreListed(t *testing.T) {
	seen := map[string]bool{}
	eachInternalDecl(t, func(site string, decl ast.Decl) {
		ast.Inspect(decl, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "WaitGroup" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
					seen[site] = true
				}
			}
			return true
		})
	})
	var got, want []string
	for site := range seen {
		got = append(got, site)
	}
	for site := range listedWaitGroups {
		want = append(want, site)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("declarations using sync.WaitGroup under internal/ = %v, want exactly %v: wait on clock.WaitGroup so a virtual clock sees the wait",
			got, want)
	}
}

// eachInternalDecl calls visit with every top-level declaration of the
// non-test code under internal/ outside internal/clock, and its site,
// "file:name" (a function's name, or a declaration's first name).
func eachInternalDecl(t *testing.T, visit func(site string, decl ast.Decl)) {
	t.Helper()
	root := repoRoot(t)
	fset := token.NewFileSet()
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
			visit(filepath.ToSlash(rel)+":"+declName(decl), decl)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declName names a top-level declaration: a function's name, or the first
// name a type, var or const declaration binds.
func declName(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Name.Name
	case *ast.GenDecl:
		if len(d.Specs) > 0 {
			switch s := d.Specs[0].(type) {
			case *ast.TypeSpec:
				return s.Name.Name
			case *ast.ValueSpec:
				return s.Names[0].Name
			}
		}
	}
	return "(package scope)"
}
