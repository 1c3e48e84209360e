package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exports TestNoTestOnlyExports accepts even
// though only tests name them. Bare names are methods that satisfy a
// standard interface and are called through it (fmt, errors,
// encoding/json, encoding, sort, container/heap); qualified names are
// test fixtures shared across packages, which must live in a non-test
// file for other packages' tests to import them.
var testOnlyAllowed = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,

	"randgraph.MustPaper":         true,
	"randgraph.Tiny":              true,
	"graph.Graph.CountKinds":      true,
	"trace.Tracer.SetSampleEvery": true,
}

// TestNoTestOnlyExports keeps production code what production runs: an
// exported function or method declared outside a _test.go file under
// internal/ must be named by some non-test file in the module (internal/,
// cmd/, examples/, bench/ or the root). Code that only tests reach
// belongs in the tests; code nothing reaches belongs nowhere.
func TestNoTestOnlyExports(t *testing.T) {
	found, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		bare := name[strings.LastIndex(name, ".")+1:]
		if testOnlyAllowed[bare] || testOnlyAllowed[name] {
			continue
		}
		t.Errorf("%s is exported from a non-test file, but no non-test file names it; move it into the tests or delete it", name)
	}
}

// TestTestOnlyExportsFixture pins both halves of the guard's contract on
// a two-function fixture whose test calls both: it reports the export
// only the test calls, and never the one a non-test file calls.
func TestTestOnlyExportsFixture(t *testing.T) {
	found, err := testOnlyExports(filepath.Join("testdata", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"pkg.Dead"}; !reflect.DeepEqual(found, want) {
		t.Fatalf("testOnlyExports = %q, want %q", found, want)
	}
}

// testOnlyExports parses the non-test .go files under root and returns,
// sorted, the exported functions and methods declared under
// root/internal that none of those files names outside the declaration
// itself: only tests can reach them. Each is reported as pkg.Func or
// pkg.Type.Method. It matches by identifier alone, so a name shared with
// anything live hides dead code, but live code is never reported.
// Directories named testdata, or starting with "." or "_", are skipped
// below root, as the go tool skips them.
func testOnlyExports(root string) ([]string, error) {
	type decl struct{ key, name string }
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		inInternal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !inInternal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if !named[d.name] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[K], *T[K] and T[K, V].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
