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
// calls an equivalence engine — seqverify.Equivalent,
// sweep.ProveEquivalent or bitsim.RandomEquivalent (except the guard's
// post-pass smoke check) — so every verdict goes through
// flows.VerifyVerdict with its one spot-check budget. It also keeps the
// scalar simulator internal/sim a test oracle, and rejects == / !=
// against ErrTooLarge, which callers must match with errors.Is: the
// engines wrap it with the observed limits.
func TestSingleVerifyLadder(t *testing.T) {
	const (
		seqverifyPkg = "repro/internal/seqverify"
		sweepPkg     = "repro/internal/sweep"
		bitsimPkg    = "repro/internal/bitsim"
		simPkg       = "repro/internal/sim"
	)
	ladder := map[string]string{seqverifyPkg: "Equivalent", sweepPkg: "ProveEquivalent", bitsimPkg: "RandomEquivalent"}
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

// TestEveryOptionHasACaller keeps options honest: every exported field of
// an exported *Options or *Config struct under internal/ must be set — as
// a composite-literal key or an assignment — by some file outside its
// declaring package, tests included. An option nothing sets is a constant
// in disguise. Fields of interface type are test seams (fault injectors)
// and exempt.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build caches, not sources
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dirs = append(dirs, filepath.ToSlash(filepath.Dir(path)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interface types, and the option structs' checked fields, by
	// "dir.Name".
	ifaces := map[string]bool{}
	for i, f := range files {
		for _, spec := range typeSpecs(f) {
			if _, ok := spec.Type.(*ast.InterfaceType); ok {
				ifaces[dirs[i]+"."+spec.Name.Name] = true
			}
		}
	}
	opts := map[string][]string{}
	for i, f := range files {
		if !strings.HasPrefix(dirs[i], "internal/") || strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		imports := importDirs(f)
		for _, spec := range typeSpecs(f) {
			name := spec.Name.Name
			st, ok := spec.Type.(*ast.StructType)
			if !ok || !spec.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			key := dirs[i] + "." + name
			for _, fl := range st.Fields.List {
				if isInterface(fl.Type, dirs[i], imports, ifaces) {
					continue
				}
				for _, id := range fl.Names {
					if id.IsExported() {
						opts[key] = append(opts[key], id.Name)
					}
				}
			}
		}
	}
	if len(opts) == 0 {
		t.Fatal("no option structs found under internal/")
	}
	set := map[string]bool{} // "dir.Type.Field"
	for i, f := range files {
		// Option types this file can name: local "pkg.Name" -> "dir.Name".
		local := map[string]string{}
		for name, ip := range importDirs(f) {
			dir := strings.TrimPrefix(ip, "repro/")
			for key := range opts {
				if typ, ok := strings.CutPrefix(key, dir+"."); ok && dir != dirs[i] {
					local[name+"."+typ] = key
				}
			}
		}
		keys := func(lit *ast.CompositeLit, key string) {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[key+"."+id.Name] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if key, ok := local[typeName(n.Type)]; ok {
					keys(n, key)
					return true
				}
				// Elided element types: []pkg.T{{...}}, map[K]pkg.T{k: {...}}.
				var elt ast.Expr
				switch lt := n.Type.(type) {
				case *ast.ArrayType:
					elt = lt.Elt
				case *ast.MapType:
					elt = lt.Value
				}
				if key, ok := local[typeName(elt)]; ok {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil {
							keys(cl, key)
						}
					}
				}
			case *ast.AssignStmt:
				// x.F = v: x's type is unknown syntactically, so F counts
				// as set on every option type this file imports.
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, key := range local {
							set[key+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	var bad []string
	for key, fields := range opts {
		for _, name := range fields {
			if !set[key+"."+name] {
				bad = append(bad, strings.TrimPrefix(key, "internal/")+"."+name+
					" is set by nothing outside its package; make it a constant or delete it")
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// typeSpecs returns every type declaration of f.
func typeSpecs(f *ast.File) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, s := range gd.Specs {
				out = append(out, s.(*ast.TypeSpec))
			}
		}
	}
	return out
}

// importDirs maps each local import name of f to its import path.
func importDirs(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		name := ip[strings.LastIndex(ip, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = ip
	}
	return m
}

// isInterface reports whether a field type declared in dir names an
// interface type (a literal, a local type or an imported repro one).
func isInterface(e ast.Expr, dir string, imports map[string]string, ifaces map[string]bool) bool {
	switch e := e.(type) {
	case *ast.InterfaceType:
		return true
	case *ast.Ident:
		return ifaces[dir+"."+e.Name]
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			return ifaces[strings.TrimPrefix(imports[pkg.Name], "repro/")+"."+e.Sel.Name]
		}
	}
	return false
}

// typeName renders a type expression of the form "pkg.Name", optionally
// behind a pointer; anything else renders as "".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			return pkg.Name + "." + e.Sel.Name
		}
	}
	return ""
}
