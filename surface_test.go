package rhythm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers of internal/ that no
// non-test file uses and that stay anyway, each with its reason. Keys are
// "pkg.Name" or "pkg.Type.Method", pkg relative to internal/.
var surfaceAllowlist = map[string]string{
	// Reference implementations the tests compare against.
	"mem.Transpose":         "per-word reference the blocked-transpose tests and FuzzTransposeElemsRange check against",
	"simt.StoreColumn":      "backs service/export_test.go's write-through Reference for the priced layout",
	"simt.Stream.MemcpyD2H": "backs the same Reference's Titan A round trip, whose backend requests cross the bus as bytes",

	// Cross-package test seams whose tests check behaviour that still exists.
	"cluster.Cluster.GroupFor":       "fabric's tests drive a bare cluster through its sharding rule as the byte reference",
	"ecom.Checkout":                  "service's kit tests pick ecom's variable-stage type by it",
	"fabric.Fabric.KillNode":         "the node-failover tests quiesce nodes through it",
	"fabric.Worker.Cluster":          "the root fabric tests reach a worker's device pool through it",
	"fabric.Worker.Quiescing":        "the root drain test waits on a worker's quiescence through it",
	"service.PageBuilder.Misaligned": "banking's §4.3.2 alignment test asserts no PadTo budget is overshot through it",
	"session.Array.Len":              "banking's and pipeline's tests count the sessions logins create and logouts delete",
	"sim.Engine.RunUntil":            "cohort's formation-timeout tests step virtual time to a deadline with it",
}

// surfaceExempt lists internal/ packages exempt as a whole.
var surfaceExempt = map[string]string{
	"service/servicetest": "the shared test harness: its callers are test files by design",
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// TestNoDeadSurface type-checks the module's non-test files and fails on
// any exported func, method, type, const or var declared in internal/
// that no non-test file uses outside its own declaration, unless the
// allowlist names it. Struct fields are skipped: embedded fields are
// read by promotion and encoded ones by reflection. A method is used
// when it is called, or implements a method called through an interface
// or an interface of a standard-library package the module imports.
func TestNoDeadSurface(t *testing.T) {
	m := checkModule(t)
	internalPrefix := m.path + "/internal/"

	// Every exported declaration of internal/, with the span of its own
	// declaration, and the receiver type expressions of its methods.
	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos
	}
	decls := map[types.Object]*decl{}
	ownReceiver := map[*ast.Ident]bool{}
	var methods []*types.Func
	for _, mp := range m.packages {
		rel, ok := strings.CutPrefix(mp.path, internalPrefix)
		if !ok {
			continue
		}
		if _, ok := surfaceExempt[rel]; ok {
			continue
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := mp.info.Defs[d.Name].(*types.Func)
					key := rel + "." + d.Name.Name
					if d.Recv != nil {
						recv := derefNamed(fn.Type().(*types.Signature).Recv().Type())
						key = rel + "." + recv.Obj().Name() + "." + d.Name.Name
						methods = append(methods, fn)
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && mp.info.Uses[id] == recv.Obj() {
								ownReceiver[id] = true
							}
							return true
						})
					}
					decls[fn] = &decl{key, m.fset.Position(d.Pos()), d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[mp.info.Defs[s.Name]] = &decl{rel + "." + s.Name.Name, m.fset.Position(s.Pos()), s.Pos(), s.End()}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() {
									decls[mp.info.Defs[name]] = &decl{rel + "." + name.Name, m.fset.Position(name.Pos()), s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}

	// Uses anywhere in the module's non-test files, and the interface
	// methods they call.
	used := map[types.Object]bool{}
	interfaces := map[*types.Interface]bool{}
	for _, mp := range m.packages {
		for id, obj := range mp.info.Uses {
			obj = origin(obj)
			if d, ok := decls[obj]; ok && (ownReceiver[id] || d.from <= id.Pos() && id.Pos() < d.to) {
				continue
			}
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					interfaces[recv.Type().Underlying().(*types.Interface)] = true
				}
			}
		}
	}
	// The standard library calls the methods of its own interfaces
	// (container/heap, sort, io, fmt.Stringer, error), out of sight of a
	// scan of the module's files.
	interfaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, mp := range m.packages {
		for _, f := range mp.files {
			for _, imp := range f.Imports {
				pkg := m.checked[strings.Trim(imp.Path.Value, `"`)]
				if pkg == nil || strings.HasPrefix(pkg.Path(), m.path+"/") {
					continue
				}
				for _, name := range pkg.Scope().Names() {
					if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
						interfaces[tn.Type().Underlying().(*types.Interface)] = true
					}
				}
			}
		}
	}
	for _, fn := range methods {
		if used[fn] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if types.IsInterface(recv) {
			continue
		}
		for iface := range interfaces {
			if !hasMethod(iface, fn.Name()) {
				continue
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(derefNamed(recv)), iface) {
				used[fn] = true
				break
			}
		}
	}

	var dead []*decl
	found := map[string]bool{}
	for obj, d := range decls {
		found[d.key] = true
		if !used[obj] {
			if _, ok := surfaceAllowlist[d.key]; !ok {
				dead = append(dead, d)
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	for _, d := range dead {
		t.Errorf("%s:%d: %s has no use outside tests; delete it or allowlist it with a reason", d.pos.Filename, d.pos.Line, d.key)
	}
	for key := range surfaceAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s names nothing; drop it", key)
		}
	}
	for obj, d := range decls {
		if _, ok := surfaceAllowlist[d.key]; ok && used[obj] {
			t.Errorf("allowlist entry %s has a non-test use now; drop it", d.key)
		}
	}
}

// singleImplementationAllowlist names the interfaces of the root
// package and internal/ that stay with fewer than two implementations,
// each with its reason. Keys are "pkg.Name", pkg relative to internal/,
// or "rhythm.Name" for the root package.
var singleImplementationAllowlist = map[string]string{
	"rhythm.Server": "the frozen benchmark/socket.go declares values of it; New returning the concrete type waits for the next benchmark change",
	"service.chain": "export_test.go's write-through RefUnit is its second implementation, and the kit tests compare the unit against it",
}

// TestNoSingleImplementationInterface fails on any interface, exported
// or not, declared in the root package or internal/ that fewer than two
// named types of the module's non-test files satisfy (by T or *T),
// unless the allowlist names it. An interface with one implementation
// stands in for its concrete type: it says the contract twice, and
// callers assert back to the type for what it leaves out.
func TestNoSingleImplementationInterface(t *testing.T) {
	m := checkModule(t)
	internalPrefix := m.path + "/internal/"
	type iface struct {
		key string
		pos token.Position
		typ *types.Interface
	}
	var ifaces []iface
	var concrete []*types.Named
	for _, mp := range m.packages {
		rel, scanned := strings.CutPrefix(mp.path, internalPrefix)
		if mp.path == m.path {
			rel, scanned = mp.path, true
		}
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if scanned {
					ifaces = append(ifaces, iface{rel + "." + name, m.fset.Position(tn.Pos()), it})
				}
				continue
			}
			concrete = append(concrete, n)
		}
	}
	found := map[string]bool{}
	for _, in := range ifaces {
		found[in.key] = true
		var impls []string
		for _, n := range concrete {
			if types.Implements(n, in.typ) || types.Implements(types.NewPointer(n), in.typ) {
				impls = append(impls, n.Obj().Pkg().Name()+"."+n.Obj().Name())
			}
		}
		_, allowed := singleImplementationAllowlist[in.key]
		switch {
		case allowed && len(impls) >= 2:
			t.Errorf("allowlist entry %s has %d implementations now; drop it", in.key, len(impls))
		case !allowed && len(impls) < 2:
			t.Errorf("%s:%d: interface %s has %d implementation(s) %v; use the concrete type or allowlist it with a reason",
				in.pos.Filename, in.pos.Line, in.key, len(impls), impls)
		}
	}
	for key := range singleImplementationAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s names nothing; drop it", key)
		}
	}
}

// modulePackage is one of the module's packages, type-checked from its
// non-test files.
type modulePackage struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// checkedModule is the module's non-test files, type-checked.
type checkedModule struct {
	fset     *token.FileSet
	path     string          // the module path
	packages []modulePackage // the module's packages, dependencies first
	// checked holds every checked package, the standard library's
	// included, by import path.
	checked map[string]*types.Package
}

// checkModule type-checks the module's non-test files, and the standard
// library's declarations they import. It skips the calling test under
// -race or without a go command.
func checkModule(t *testing.T) checkedModule {
	if raceEnabled {
		t.Skip("a static scan; the race detector adds nothing to it")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	pkgs := listPackages(t)
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	var module []modulePackage
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil && !p.Standard {
				t.Fatal(err)
			}
			if f != nil {
				files = append(files, f)
			}
		}
		importMap := p.ImportMap
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := importMap[path]; ok {
					path = mapped
				}
				if path == "unsafe" {
					return types.Unsafe, nil
				}
				if pkg, ok := checked[path]; ok {
					return pkg, nil
				}
				return nil, fmt.Errorf("%s not checked before its importer", path)
			}),
			Sizes: types.SizesFor("gc", runtime.GOARCH),
		}
		var info *types.Info
		if p.Standard {
			// Only the standard library's declarations matter here.
			conf.IgnoreFuncBodies = true
			conf.Error = func(error) {}
		} else {
			info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil && !p.Standard {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if !p.Standard {
			module = append(module, modulePackage{p.ImportPath, files, info, pkg})
		}
	}

	modulePath := module[len(module)-1].path
	if i := strings.IndexByte(modulePath, '/'); i >= 0 {
		modulePath = modulePath[:i]
	}
	return checkedModule{fset, modulePath, module, checked}
}

// listPackages returns the module's packages and everything they import,
// dependencies first, as the go command builds them without cgo.
func listPackages(t *testing.T) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,ImportMap,Standard", "./...")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.ImportPath != "unsafe" {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
