package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"testing"
)

// dispatchPackages are the engines whose per-message hand-offs — a value
// onto the scheduler, a reliable send's completion — use pooled records
// with a method value bound once instead of a closure per message.
var dispatchPackages = []string{
	"internal/events",
	"internal/rpc",
	"internal/variables",
}

// scheduledLiterals is every func literal in non-test code of
// dispatchPackages that is passed to Schedule or as a reliable-send
// completion (a func(error) argument), as "file:function". Each costs a
// closure per call, so only cold paths may keep one, and the list only
// shrinks.
var scheduledLiterals = []string{
	"internal/variables/variables.go:(*Subscription).fireTimeout",
	"internal/variables/variables.go:(*Subscription).requestInitial",
}

// TestScheduledWorkIsNotALiteral holds the func literals handed to
// Schedule or to a reliable send in dispatchPackages to scheduledLiterals.
func TestScheduledWorkIsNotALiteral(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var got []string
	for _, rel := range dispatchPackages {
		for _, f := range parsePackageFiles(t, fset, filepath.Join(root, rel)) {
			file := filepath.Base(fset.Position(f.Pos()).Filename)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					schedule := false
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						schedule = sel.Sel.Name == "Schedule"
					}
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.FuncLit); ok && (schedule || isCompletion(lit.Type)) {
							got = append(got, rel+"/"+file+":"+funcName(fn))
						}
					}
					return true
				})
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, scheduledLiterals) {
		t.Errorf("func literals handed to Schedule or a reliable send = %v, want exactly %v: queue a pooled record's bound method instead",
			got, scheduledLiterals)
	}
}

// isCompletion reports whether ft is func(error), the reliable-send
// completion signature.
func isCompletion(ft *ast.FuncType) bool {
	if ft.Results != nil || ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) > 1 {
		return false
	}
	id, ok := ft.Params.List[0].Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// funcName names a function declaration, receiver included: "Fn",
// "T.Fn" or "(*T).Fn".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch recv := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := recv.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return recv.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
