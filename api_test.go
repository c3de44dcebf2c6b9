package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no Go files found under internal/")
	}
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
