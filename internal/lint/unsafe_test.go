package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unsafeFiles is every non-test file in the module that imports unsafe: the
// decode slab, which builds interfaces over its slots and states the layout
// it relies on. The list only shrinks; new code does without unsafe.
var unsafeFiles = []string{
	"internal/encoding/slab.go",
}

// TestUnsafeIsConfined holds the non-test imports of unsafe to unsafeFiles.
func TestUnsafeIsConfined(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				got = append(got, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, unsafeFiles) {
		t.Errorf("non-test files importing unsafe = %v, want exactly %v", got, unsafeFiles)
	}
}
