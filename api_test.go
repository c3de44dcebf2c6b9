package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSingleEntryPointPerOperation enforces one exported entry point per
// operation under internal/: no package may declare an exported function
// or method X alongside a tracing variant XT or a context variant XCtx.
// Such variants drift apart over time (a context-free wrapper silently
// drops deadlines); the single X takes ctx and carries the tracer in its
// parameters or options instead.
func TestSingleEntryPointPerOperation(t *testing.T) {
	// Exported names per package directory, keyed "Recv.Name" for methods.
	decls := map[string]map[string]token.Position{}
	fset := token.NewFileSet()
	parseNonTestFiles(t, fset, []string{"internal"}, func(path string, f *ast.File) {
		dir := filepath.Dir(path)
		if decls[dir] == nil {
			decls[dir] = map[string]token.Position{}
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			decls[dir][recvName(fn)+fn.Name.Name] = fset.Position(fn.Pos())
		}
	})
	var bad []string
	for _, names := range decls {
		for name := range names {
			for _, suffix := range []string{"T", "Ctx"} {
				if pos, ok := names[name+suffix]; ok {
					bad = append(bad, pos.String()+": "+name+suffix+" duplicates "+name)
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestSingleVerifyLadder enforces one verification ladder: outside
// internal/flows, no non-test code under cmd/, internal/ or examples/
// calls seqverify.Check or bitsim.RandomEquivalent (except the guard's
// post-pass smoke check), so every verdict goes through
// flows.VerifyVerdict with its one spot-check budget. It also keeps the
// scalar simulator internal/sim a test oracle, and rejects == / !=
// against ErrTooLarge, which callers must match with errors.Is: the
// engines wrap it with the observed limits.
func TestSingleVerifyLadder(t *testing.T) {
	const (
		seqverifyPkg = "repro/internal/seqverify"
		bitsimPkg    = "repro/internal/bitsim"
		simPkg       = "repro/internal/sim"
	)
	ladder := map[string]string{seqverifyPkg: "Check", bitsimPkg: "RandomEquivalent"}
	fset := token.NewFileSet()
	var bad []string
	parseNonTestFiles(t, fset, []string{"cmd", "internal", "examples"}, func(path string, f *ast.File) {
		path = filepath.ToSlash(path)
		// Local import name -> import path.
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
			if ip == simPkg {
				bad = append(bad, fset.Position(im.Pos()).String()+": imports the test oracle "+simPkg)
			}
		}
		inFlows := strings.HasPrefix(path, "internal/flows/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				ip := imports[pkg.Name]
				if ladder[ip] != sel.Sel.Name || inFlows {
					return true
				}
				if ip == bitsimPkg && path == "internal/guard/tx.go" {
					return true // the post-pass smoke check, not a verdict
				}
				bad = append(bad, fset.Position(n.Pos()).String()+": calls "+pkg.Name+"."+sel.Sel.Name+
					" outside internal/flows; use flows.VerifyVerdict")
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isErrTooLarge(n.X) || isErrTooLarge(n.Y)) {
					bad = append(bad, fset.Position(n.Pos()).String()+": compares ErrTooLarge with "+n.Op.String()+
						"; use errors.Is")
				}
			}
			return true
		})
	})
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// parseNonTestFiles parses every non-test Go file under the given roots and
// hands it to fn, failing the test on a parse error or when no file is
// found.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, roots []string, fn func(path string, f *ast.File)) {
	t.Helper()
	files := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			fn(path, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatalf("no Go files found under %v", roots)
	}
}

// isErrTooLarge reports whether e names an ErrTooLarge sentinel, qualified
// or not.
func isErrTooLarge(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "ErrTooLarge"
	case *ast.SelectorExpr:
		return e.Sel.Name == "ErrTooLarge"
	}
	return false
}

// recvName returns "Type." for a method and "" for a plain function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
