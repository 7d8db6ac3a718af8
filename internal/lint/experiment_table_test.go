package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentConsumersLoopOverTheTable keeps per-experiment harness code
// from growing back outside internal/experiments: cmd/uavbench and the
// repository-root tests (benchmarks, baseline guards) reach a scenario only
// through the experiment table (experiments.All / Select → Experiment.Run),
// never by calling an experiments.RunE* function with parameters of their
// own — that is how the same experiment came to be described four times.
func TestExperimentConsumersLoopOverTheTable(t *testing.T) {
	root := repoRoot(t)
	files, err := filepath.Glob(filepath.Join(root, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := filepath.Glob(filepath.Join(root, "cmd", "uavbench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(cmd) == 0 {
		t.Fatalf("found %d root test files and %d cmd/uavbench files; the check would be vacuous", len(files), len(cmd))
	}
	fset := token.NewFileSet()
	for _, name := range append(files, cmd...) {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "experiments" && strings.HasPrefix(sel.Sel.Name, "RunE") {
				t.Errorf("%s: experiments.%s called outside the experiment table; register or extend a table entry instead",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
