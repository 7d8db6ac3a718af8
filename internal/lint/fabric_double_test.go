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

// TestFabricHasOneTestDouble fails when a _test.go file under internal/
// declares a type whose method set holds both SendReliable and SendGroup,
// its own or promoted from an embedded type: a hand-written fake of
// fabric.Fabric. Engine tests run on fabrictest.Fabric, the one double that
// keeps the container's send contract, so no second version of it drifts.
func TestFabricHasOneTestDouble(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	// Each type's methods and embedded types, keyed by package (directory
	// and name) and type name, and the types test files declare.
	methods := map[string][]string{}
	embeds := map[string][]string{}
	type testType struct{ pkg, name, file string }
	var inTest []testType
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Dir(path) + ":" + f.Name.Name + "."
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				recv := pkg + typeName(fn.Recv.List[0].Type)
				methods[recv] = append(methods[recv], fn.Name.Name)
			}
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if strings.HasSuffix(path, "_test.go") {
					rel, err := filepath.Rel(root, path)
					if err != nil {
						return err
					}
					inTest = append(inTest, testType{pkg, ts.Name.Name, filepath.ToSlash(rel)})
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 {
							embeds[pkg+ts.Name.Name] = append(embeds[pkg+ts.Name.Name], typeName(field.Type))
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
	// has reports whether a type's method set holds method. An embedded
	// fabric.Fabric brings the whole interface.
	var has func(pkg, typ, method string) bool
	has = func(pkg, typ, method string) bool {
		if typ == "fabric.Fabric" || slices.Contains(methods[pkg+typ], method) {
			return true
		}
		for _, e := range embeds[pkg+typ] {
			if e != typ && has(pkg, e, method) {
				return true
			}
		}
		return false
	}
	var fakes []string
	for _, tt := range inTest {
		if has(tt.pkg, tt.name, "SendReliable") && has(tt.pkg, tt.name, "SendGroup") {
			fakes = append(fakes, tt.file+":"+tt.name)
		}
	}
	slices.Sort(fakes)
	if len(fakes) != 0 {
		t.Errorf("%d test types implement fabric.Fabric's sends: %v; run the engine on fabrictest.Fabric instead",
			len(fakes), fakes)
	}
}

// typeName names a receiver or embedded type: "T" for T and *T, "pkg.T"
// for a qualified one.
func typeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return typeName(e.X) + "." + e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
