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
	"strings"
	"testing"
)

// uncalledAllowed are the exported internal entry points kept without a
// non-test caller outside their package, each with the reason it stays.
var uncalledAllowed = map[string]string{
	"partmb/internal/obs.ReadJournal":                "internal/remote's tests read the journals a distributed sweep writes with it",
	"(*partmb/internal/sim.Arena).Events":            "the root TestEventPins reads it, and an events-per-pass benchmark metric will",
	"(*partmb/internal/mpi.PRequest).BindSendBuffer": "examples/stencil2d's bit-exact run needs the payload path until a tap replaces it",
	"(*partmb/internal/mpi.PRequest).BindRecvBuffer": "examples/stencil2d's bit-exact run needs the payload path until a tap replaces it",
}

// dynamicInterfaces are the standard-library interfaces whose methods the
// standard library calls by interface conversion, never by name.
var dynamicInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"net/http", "Handler"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
}

// goListExport lists the packages of the module at dir and their
// dependencies in dependency order, with compiled export data.
func goListExport(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Standard", "./...")
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

// TestInternalEntryPointsHaveCallers keeps every internal/ package the size
// of its callers: each exported function, and each exported method of an
// exported type, must be used by a non-test package outside its own, in
// this module or in bench/. Examples are demos, not callers: a name only an
// example uses fails. Every other package of both modules is type-checked
// from source, and a name counts as used only where the type checker
// resolves an identifier to that very function, so a field or method of the
// same name elsewhere keeps nothing alive. A method also counts as used when
// its type implements an interface that declares it: an interface of either
// module, or one of dynamicInterfaces. Delete a name with no caller;
// unexport one only its own package uses.
func TestInternalEntryPointsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	exports := map[string]string{} // standard import path → export data file
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var interfaces []*types.Interface
	used := map[*types.Func]bool{}
	var internal []*types.Package
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListExport(t, dir) {
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if _, seen := checked[p.ImportPath]; seen || strings.HasPrefix(p.ImportPath, "partmb/examples/") {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = pkg
			if strings.HasPrefix(p.ImportPath, "partmb/internal/") {
				internal = append(internal, pkg)
			}
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
					interfaces = append(interfaces, tn.Type().Underlying().(*types.Interface))
				}
			}
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != pkg {
					used[fn.Origin()] = true
				}
			}
		}
	}
	if len(internal) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, want := range dynamicInterfaces {
		scope := types.Universe
		if want.pkg != "" {
			p, err := imp.Import(want.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		interfaces = append(interfaces, scope.Lookup(want.name).Type().Underlying().(*types.Interface))
	}

	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, iface := range interfaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	allowed := map[string]bool{}
	for _, pkg := range internal {
		t.Run(strings.TrimPrefix(pkg.Path(), "partmb/"), func(t *testing.T) {
			var entries []*types.Func
			exported := 0
			for _, name := range pkg.Scope().Names() {
				switch obj := pkg.Scope().Lookup(name).(type) {
				case *types.Func:
					if obj.Exported() {
						exported++
						entries = append(entries, obj)
					}
				case *types.TypeName:
					named, ok := obj.Type().(*types.Named)
					if !ok || !obj.Exported() {
						continue
					}
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							exported++
							if !satisfies(named, m) {
								entries = append(entries, m)
							}
						}
					}
				}
			}
			t.Logf("%d exported functions and methods, %d not interface methods", exported, len(entries))
			var unused []string
			for _, fn := range entries {
				name := fn.FullName()
				if _, ok := uncalledAllowed[name]; ok {
					allowed[name] = true
					if used[fn] {
						t.Errorf("%s is allowlisted but has a caller: drop it from uncalledAllowed", name)
					}
				} else if !used[fn] {
					unused = append(unused, name)
				}
			}
			sort.Strings(unused)
			for _, name := range unused {
				t.Errorf("entry point %s has no non-test caller outside its package (examples do not count)", name)
			}
		})
	}
	for name := range uncalledAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted entry point %s does not exist", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
