package partmb_test

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

// mpiInterfaceMethods are the exported internal/mpi methods that exist to
// satisfy an interface (sim.Handler, fmt.Stringer, encoding.Text*), so code
// calls them without naming them.
var mpiInterfaceMethods = map[string]bool{
	"Fire":          true,
	"String":        true,
	"MarshalText":   true,
	"UnmarshalText": true,
}

// TestMPIEntryPointsHaveCallers keeps internal/mpi the size of its callers:
// every exported function and every exported method of an exported type
// must be named in some non-test Go file outside internal/mpi (bench/,
// examples/ and cmd/ included). An entry point only tests call is surface
// that every runtime change has to keep working for nobody; delete it, or
// unexport it if a kept entry point needs it.
func TestMPIEntryPointsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mpiDir := filepath.Join("internal", "mpi")
	entry := map[string]string{} // identifier → where it is declared
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f := parse(path)
		if filepath.Dir(path) != mpiDir {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || mpiInterfaceMethods[fn.Name.Name] {
				continue
			}
			where := fn.Name.Name
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				where = recv + "." + where
			}
			entry[fn.Name.Name] = where + " (" + fset.Position(fn.Pos()).String() + ")"
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entry) == 0 {
		t.Fatalf("no exported functions found under %s", mpiDir)
	}
	var unused []string
	for name, where := range entry {
		if !used[name] {
			unused = append(unused, where)
		}
	}
	sort.Strings(unused)
	for _, where := range unused {
		t.Errorf("internal/mpi entry point %s has no caller outside internal/mpi and tests", where)
	}
}

// receiverType names a method receiver's type: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}
