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

// enginePackages are the five engines written against fabric.Fabric.
var enginePackages = []string{
	"internal/variables",
	"internal/events",
	"internal/rpc",
	"internal/filetransfer",
	"internal/discovery",
}

// containerPackages are the container and the planes it alone wires
// together. An engine that imports one has stopped being written against
// the fabric: it reaches around the narrow container↔engine interface the
// architecture rests on (paper §3, §6).
var containerPackages = []string{
	"uavmw/internal/core",
	"uavmw/internal/egress",
	"uavmw/internal/ingress",
	"uavmw/internal/link",
}

// TestEnginesImportNoContainerInternals checks the engines' non-test
// imports against containerPackages.
func TestEnginesImportNoContainerInternals(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	for _, rel := range enginePackages {
		files := parsePackageFiles(t, fset, filepath.Join(root, rel))
		if len(files) == 0 {
			t.Errorf("%s has no source files; the check would be vacuous", rel)
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(containerPackages, path) {
					t.Errorf("%s: engine package %s imports %s; engines see the container only through fabric.Fabric",
						fset.Position(imp.Pos()), rel, path)
				}
			}
		}
	}
}

// statsStructs is every struct a library package may name *Stats. The
// node's metrics.Registry is the one stats surface: a plane counts into
// pre-resolved registry handles and readers query the registry, so a
// hand-written snapshot struct is a second copy to keep in step. The two
// exceptions count where no node registry exists: transport.Stats is part
// of the Transport interface (transports are built outside the node, and
// the benchmark implements it), transport.LinkStats describes the simulated
// medium. internal/experiments is exempt — result records are its product.
var statsStructs = []string{
	"internal/transport.LinkStats",
	"internal/transport.Stats",
}

// TestStatsStructsAreAllowlisted finds every `type …Stats struct` in
// non-test code under internal/ and cmd/ and holds the set to statsStructs.
func TestStatsStructsAreAllowlisted(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var got []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join(root, "internal", "experiments") {
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
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.TYPE {
					continue
				}
				for _, spec := range gen.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, isStruct := ts.Type.(*ast.StructType); isStruct && strings.HasSuffix(ts.Name.Name, "Stats") {
						got = append(got, filepath.ToSlash(rel)+"."+ts.Name.Name)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, statsStructs) {
		t.Errorf("*Stats structs in library code = %v, want exactly %v: count into the node registry and let readers query it",
			got, statsStructs)
	}
}
