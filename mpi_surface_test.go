package partmb_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

const mpiPath = "partmb/internal/mpi"

// mpiInterfaceMethods are the exported internal/mpi methods that exist to
// satisfy an interface (sim.Handler, fmt.Stringer, encoding.Text*), so code
// calls them without naming them.
var mpiInterfaceMethods = map[string]bool{
	"Fire":          true,
	"String":        true,
	"MarshalText":   true,
	"UnmarshalText": true,
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// goListExport lists the packages of the module at dir and their
// dependencies, with compiled export data.
func goListExport(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Imports,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// TestMPIEntryPointsHaveCallers keeps internal/mpi the size of its callers:
// every exported function and every exported method of an exported type
// must be used by some non-test package outside internal/mpi (bench/,
// examples/ and cmd/ included). Every such package is type-checked, and an
// entry point counts as used only where the type checker resolves a name to
// that very function, so a field or method of the same name elsewhere does
// not keep it alive. An entry point only tests call is surface that every
// runtime change has to keep working for nobody; delete it, or unexport it
// if a kept entry point needs it.
func TestMPIEntryPointsHaveCallers(t *testing.T) {
	exports := map[string]string{} // import path → export data file
	var importers []listedPackage
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListExport(t, dir) {
			if _, seen := exports[p.ImportPath]; seen {
				continue
			}
			exports[p.ImportPath] = p.Export
			if p.Standard || p.ImportPath == mpiPath {
				continue
			}
			for _, imp := range p.Imports {
				if imp == mpiPath {
					importers = append(importers, p)
					break
				}
			}
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	mpi, err := imp.Import(mpiPath)
	if err != nil {
		t.Fatal(err)
	}
	entry := map[*types.Func]bool{}
	for _, name := range mpi.Scope().Names() {
		switch obj := mpi.Scope().Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				entry[obj] = true
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !mpiInterfaceMethods[m.Name()] {
					entry[m] = true
				}
			}
		}
	}
	if len(entry) == 0 {
		t.Fatalf("no exported functions found in %s", mpiPath)
	}

	for _, p := range importers {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				delete(entry, fn.Origin())
			}
		}
	}

	var unused []string
	for fn := range entry {
		unused = append(unused, fn.FullName())
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("internal/mpi entry point %s has no caller outside internal/mpi and tests", name)
	}
}
