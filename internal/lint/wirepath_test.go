// Package lint holds repo-enforced source checks that run as ordinary go
// tests (CI's `go test ./...` executes them; no extra tooling). They pin
// the observability-plane contract: wire-path failures are constructed
// through the uerr taxonomy, not ad-hoc fmt.Errorf strings, and error
// codes carry a well-formed component plus an explicit category.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wirePathPackages are the layers whose failures ride the wire or the
// node's send/receive machinery. In these packages a fmt.Errorf must wrap
// a cause (%w) — typically one of the package's sentinel errors surfaced
// through a caller-facing API. A fmt.Errorf without %w manufactures an
// untyped, uncounted error string; construct it through uerr instead so
// it lands in the node registry with a component and category.
var wirePathPackages = []string{
	"internal/core",
	"internal/discovery",
	"internal/egress",
	"internal/events",
	"internal/filetransfer",
	"internal/gateway",
	"internal/ingress",
	"internal/link",
	"internal/naming",
	"internal/protocol",
	"internal/rpc",
	"internal/transport",
	"internal/variables",
}

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// parsePackageFiles parses every non-test .go file under dir.
func parsePackageFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files
}

// selectorCall matches a call of the form pkg.Fn and returns its operands.
func selectorCall(n ast.Node) (pkg, fn string, call *ast.CallExpr) {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return "", "", nil
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", nil
	}
	return id.Name, sel.Sel.Name, c
}

// TestWirePathErrorsAreTyped rejects fmt.Errorf calls without a %w verb
// in wire-path packages. Wrapping a sentinel with %w keeps a caller API's
// errors.Is contract and stays legal; a bare formatted string is an
// untyped error invisible to the metrics plane.
func TestWirePathErrorsAreTyped(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	for _, rel := range wirePathPackages {
		for _, f := range parsePackageFiles(t, fset, filepath.Join(root, rel)) {
			ast.Inspect(f, func(n ast.Node) bool {
				pkg, fn, call := selectorCall(n)
				if pkg != "fmt" || fn != "Errorf" || len(call.Args) == 0 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: fmt.Errorf with non-literal format; use uerr so the failure is typed and counted",
						fset.Position(call.Pos()))
					return true
				}
				format, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.Contains(format, "%w") {
					t.Errorf("%s: fmt.Errorf without %%w on a wire path; construct through uerr (typed + counted) or wrap a sentinel with %%w",
						fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
}

// TestWirePathNoteMessagesAreConstant rejects a string concatenation with a
// non-literal operand as the message argument of uerr.Note in wire-path
// packages. Note is called unconditionally — its err is usually the result
// of the send it wraps — so Go builds the message on the success path too:
// one allocation per delivered frame for a string only a failure reads.
// Sites that want a name in the message test err first and use uerr.Wrapf.
func TestWirePathNoteMessagesAreConstant(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	notes := 0
	for _, rel := range wirePathPackages {
		for _, f := range parsePackageFiles(t, fset, filepath.Join(root, rel)) {
			ast.Inspect(f, func(n ast.Node) bool {
				pkg, fn, call := selectorCall(n)
				if pkg != "uerr" || fn != "Note" || len(call.Args) != 4 {
					return true
				}
				notes++
				if bin, ok := call.Args[3].(*ast.BinaryExpr); ok && !literalConcat(bin) {
					t.Errorf("%s: uerr.Note message is built by concatenation on every call; test the error first and use uerr.Wrapf",
						fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
	if notes == 0 {
		t.Fatal("no uerr.Note calls found; the lint is miswired")
	}
}

// literalConcat reports whether e is a + chain of string literals only,
// which the compiler folds into one constant.
func literalConcat(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.STRING
	case *ast.ParenExpr:
		return literalConcat(x.X)
	case *ast.BinaryExpr:
		return x.Op == token.ADD && literalConcat(x.X) && literalConcat(x.Y)
	default:
		return false
	}
}

// wirepathAllocTag marks a reviewed allocation on a wire-path package:
// `//wirepath:alloc <reason>` on the same line as (or the line above) a
// bare make([]byte, ...). Everything else in these packages must come from
// bufpool (steady-state buffers) so the zero-allocation gates keep holding.
const wirepathAllocTag = "wirepath:alloc"

// TestWirePathBuffersArePooled rejects unannotated make([]byte, ...) in
// wire-path packages. A bare make on a per-frame path is exactly the
// allocation the pooled encode/decode work removed; legitimate ones
// (retained copies, pool-miss constructors, one-time rings) carry a
// //wirepath:alloc comment stating why the buffer may not be pooled — and
// their number only goes down: maxWirepathWaivers is lowered with every
// waiver a change retires.
func TestWirePathBuffersArePooled(t *testing.T) {
	const maxWirepathWaivers = 8
	root := repoRoot(t)
	sites, waivers := 0, 0
	for _, rel := range wirePathPackages {
		dir := filepath.Join(root, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			// Lines blessed by an annotation: the tag's own line and the
			// one below it (tag-above-statement is the common form).
			annotated := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, wirepathAllocTag)
					if idx < 0 {
						continue
					}
					waivers++
					if strings.TrimSpace(c.Text[idx+len(wirepathAllocTag):]) == "" {
						t.Errorf("%s: %s needs a reason", fset.Position(c.Pos()), wirepathAllocTag)
					}
					line := fset.Position(c.Pos()).Line
					annotated[line] = true
					annotated[line+1] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, isID := call.Fun.(*ast.Ident); !isID || id.Name != "make" || len(call.Args) < 2 {
					return true
				}
				at, isArr := call.Args[0].(*ast.ArrayType)
				if !isArr || at.Len != nil {
					return true
				}
				if elt, isID := at.Elt.(*ast.Ident); !isID || elt.Name != "byte" {
					return true
				}
				sites++
				if !annotated[fset.Position(call.Pos()).Line] {
					t.Errorf("%s: bare make([]byte, ...) on a wire-path package; use bufpool.Get/Put, or annotate with //%s <reason> if the buffer genuinely cannot be pooled",
						fset.Position(call.Pos()), wirepathAllocTag)
				}
				return true
			})
		}
	}
	if sites == 0 {
		t.Fatal("no make([]byte) sites found; the lint is miswired")
	}
	if waivers > maxWirepathWaivers {
		t.Errorf("%d //%s waivers on wire-path packages, want at most %d", waivers, wirepathAllocTag, maxWirepathWaivers)
	}
}

// codePattern is the uerr.Register contract: lowercase component.name.
var codePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$`)

// TestErrorCodesCarryComponentAndCategory statically validates every
// uerr.Register call in the repo: the code is a literal "component.name"
// string (no computed codes — the vocabulary must be greppable) and the
// category is an explicit uerr.Cat* selector, never CatUnknown. The
// runtime panics in Register catch the same mistakes, but only on the
// first execution of the offending package; this runs on every file,
// executed or not.
func TestErrorCodesCarryComponentAndCategory(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	registrations := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			return perr
		}
		ast.Inspect(f, func(n ast.Node) bool {
			pkg, fn, call := selectorCall(n)
			if pkg != "uerr" || fn != "Register" {
				return true
			}
			registrations++
			if len(call.Args) != 2 {
				t.Errorf("%s: uerr.Register wants (code, category)", fset.Position(call.Pos()))
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: uerr.Register code must be a string literal", fset.Position(call.Pos()))
				return true
			}
			code, uqErr := strconv.Unquote(lit.Value)
			if uqErr != nil || !codePattern.MatchString(code) {
				t.Errorf("%s: code %s is not lowercase component.name", fset.Position(call.Pos()), lit.Value)
			}
			for _, word := range strings.FieldsFunc(code, func(r rune) bool { return r == '.' || r == '_' }) {
				if word == "err" || word == "error" || word == "errors" {
					t.Errorf("%s: code %q contains %q; the errors family already says so",
						fset.Position(call.Pos()), code, word)
				}
			}
			catPkg, catName, _ := selectorCallArg(call.Args[1])
			if catPkg != "uerr" || !strings.HasPrefix(catName, "Cat") || catName == "CatUnknown" {
				t.Errorf("%s: category must be an explicit uerr.Cat* (not CatUnknown), got %s.%s",
					fset.Position(call.Pos()), catPkg, catName)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if registrations == 0 {
		t.Fatal("no uerr.Register calls found; the lint is miswired")
	}
}

// selectorCallArg reads a pkg.Name selector expression argument.
func selectorCallArg(e ast.Expr) (pkg, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	return id.Name, sel.Sel.Name, true
}

// TestCoreHasOneTransmitPath keeps the container's transmit forks from
// growing back. Non-test internal/core turns a frame into wire bytes in one
// place (a single protocol.AppendFrame call, in transmit), hands datagrams
// to the egress plane from one place (a single EnqueueTo call) plus the
// ARQ transmit hook's Enqueue, and owns no GC-owned encode buffer — every
// datagram, the one ARQ retains included, is pooled: no make([]byte) site
// (and, by TestLegacyFrameCodecStaysInProtocol, no EncodeFrame call).
func TestCoreHasOneTransmitPath(t *testing.T) {
	fset := token.NewFileSet()
	calls := map[string]int{}
	gcEncodes := 0
	for _, f := range parsePackageFiles(t, fset, filepath.Join(repoRoot(t), "internal/core")) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "make" && len(call.Args) > 0 {
				if at, isArr := call.Args[0].(*ast.ArrayType); isArr && at.Len == nil {
					if elt, isElt := at.Elt.(*ast.Ident); isElt && elt.Name == "byte" {
						gcEncodes++
					}
				}
			}
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				name := sel.Sel.Name
				if id, isID := sel.X.(*ast.Ident); isID && id.Name == "protocol" {
					name = "protocol." + name
				}
				calls[name]++
			}
			return true
		})
	}
	if n := calls["protocol.AppendFrame"]; n != 1 {
		t.Errorf("internal/core calls protocol.AppendFrame %d time(s), want exactly 1 (transmit)", n)
	}
	if n := calls["EnqueueTo"]; n != 1 {
		t.Errorf("internal/core calls EnqueueTo %d time(s), want exactly 1 (transmit's enqueue)", n)
	}
	if gcEncodes != 0 {
		t.Errorf("internal/core has %d GC-owned encode sites (make([]byte)), want none", gcEncodes)
	}
}

// legacyCodec is the frame codec's allocating surface. Everything outside
// internal/protocol encodes with AppendFrame into pooled buffers and
// decodes with DecodeFrameInto and ReadBatch; only the protocol package,
// tests and bench/ call these, so deleting them is a change to those alone.
var legacyCodec = map[string]bool{"EncodeFrame": true, "DecodeFrame": true, "DecodeBatch": true}

// TestLegacyFrameCodecStaysInProtocol rejects protocol.EncodeFrame,
// DecodeFrame and DecodeBatch calls in non-test code under internal/ and
// cmd/ outside internal/protocol.
func TestLegacyFrameCodecStaysInProtocol(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	files := 0
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join(root, "internal", "protocol") || d.Name() == "testdata" {
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
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				if pkg, fn, call := selectorCall(n); pkg == "protocol" && legacyCodec[fn] {
					t.Errorf("%s: protocol.%s outside internal/protocol; encode with AppendFrame, decode with DecodeFrameInto or ReadBatch",
						fset.Position(call.Pos()), fn)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no files scanned; the lint is miswired")
	}
}

// TestEgressPlaneExportsTwoEnqueueEntryPoints pins the plane's send
// surface: the general EnqueueTo, which takes the buffer over, and the
// unicast Enqueue, which copies it. Any
// other method on Plane whose name starts with "enqueue", in either case,
// is a fork of the one send contract.
func TestEgressPlaneExportsTwoEnqueueEntryPoints(t *testing.T) {
	fset := token.NewFileSet()
	var got []string
	for _, f := range parsePackageFiles(t, fset, filepath.Join(repoRoot(t), "internal/egress")) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && id.Name == "Plane" &&
				strings.HasPrefix(strings.ToLower(fn.Name.Name), "enqueue") {
				got = append(got, fn.Name.Name)
			}
		}
	}
	slices.Sort(got)
	if want := []string{"Enqueue", "EnqueueTo"}; !slices.Equal(got, want) {
		t.Errorf("egress.Plane enqueue methods = %v, want exactly %v", got, want)
	}
}
