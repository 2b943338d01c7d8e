package detlock_test

// The dead-export guard. An exported identifier declared in a non-test file
// under internal/ must be referenced by some non-test file of the module or
// of bench/ (a module of its own that compiles against internal/), or by
// another package's tests. One that only its own package's tests reach is
// code kept alive for its tests; one that nothing reaches is dead. A
// reference from inside the body of a flagged export does not count, so
// what only flagged code uses is flagged with it.
//
// References are resolved by go/types, so a method is told apart from every
// other method of the same name. Exempt are methods that satisfy an
// interface (called through it, never by name) and methods of the types the
// root package aliases, which are public API whether or not the module calls
// them — as long as some file, test or not, of the module or of bench/ calls
// them at all: an aliased method nothing references is flagged like any
// other.
//
// The root package is the public API, and its users are the programs under
// examples/ and cmd/ and the bench module: an export of it needs a non-test
// reference from one of them, or must be named in the signature of an
// exported function that has one. Its aliases of internal/det and
// internal/diag (the runtime's types, its failure reports and their
// sentinels) are exempt: a user reaches them through the runtime's methods
// and errors.As, not by name. A reference from inside a flagged root export
// does not keep an internal one alive either. Anything else that must stay
// goes in deadExportAllowlist with its reason.
//
// The unset-option guard. An exported field of a struct type under
// internal/ named Config, …Config or Options is a choice its callers make,
// so some file must make it: a composite literal that keys it (its own
// package's presets included), or an assignment, increment or address-of
// outside its own package's non-test files. Those inside them are the
// package's defaulting, which no caller chose. Tests and bench/ count as
// callers. A field nothing sets is a constant: fold it into one, or
// allowlist it in unsetOptionAllowlist with its reason.
//
// `make deadcode` runs both guards verbosely and prints their allowlists.

import (
	"fmt"
	"go/ast"
	"go/build"
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

// deadExportAllowlist names exports the guard would flag that stay, each
// with the reason it stays. Keys are spelled as the guard reports them.
var deadExportAllowlist = map[string]string{}

// unsetOptionAllowlist names option fields the guard would flag that stay,
// each with the reason it stays. Keys are spelled as the guard reports them.
var unsetOptionAllowlist = map[string]string{}

func TestNoDeadExports(t *testing.T) {
	found, err := deadExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, found, "deadExportAllowlist", deadExportAllowlist, "delete it, move it into a _test.go file")
}

func TestNoUnsetOptions(t *testing.T) {
	l, modPath, paths, err := loadTree(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, l.unsetOptions(modPath, paths), "unsetOptionAllowlist", unsetOptionAllowlist, "fold it into a constant in the package that reads it")
}

// checkFindings fails for each finding allow does not name and for each
// entry of allow that is no longer found, and logs allow.
func checkFindings(t *testing.T, found []finding, allowName string, allow map[string]string, fix string) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range found {
		seen[d.name] = true
		if _, ok := allow[d.name]; !ok {
			t.Errorf("%s: %s is %s: %s, or allowlist it with a reason", d.pos, d.name, d.why, fix)
		}
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	t.Logf("allowlist: %d entries", len(names))
	for _, name := range names {
		if !seen[name] {
			t.Errorf("allowlisted %s is no longer flagged: drop it from %s", name, allowName)
		}
		t.Logf("allowed: %s — %s", name, allow[name])
	}
}

// TestDeadExportsFixture runs the guard on a tree made for it: an export
// that only its own package's tests, or only flagged exports, use is
// flagged, and one that another package's test or the bench module uses is
// not, nor is a method that satisfies an interface or belongs to a type the
// root package aliases and is referenced somewhere; one of the root's that
// nothing references is flagged. A root export that no example, command or
// benchmark names is flagged, with what only it references, unless an
// exported function they call names it in its signature or it aliases det
// or diag.
func TestDeadExportsFixture(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"fix.go": `package fix

import (
	"fix/internal/a"
	"fix/internal/det"
	"fix/internal/diag"
)

type T = a.Public

type Sig = a.Conf

type Unnamed = a.RootOnly

type Runtime = det.Runtime

var ErrX = diag.ErrX

var _ = a.Used

func Open() *Sig { return nil }

func Nobody() {}
`,
		"fix_test.go":        "package fix_test\n\nimport (\n\t\"testing\"\n\n\t\"fix\"\n)\n\nfunc TestRoot(t *testing.T) { fix.Nobody() }\n",
		"internal/det/d.go":  "package det\n\ntype Runtime struct{}\n",
		"internal/diag/d.go": "package diag\n\nimport \"errors\"\n\nvar ErrX = errors.New(\"x\")\n",
		"internal/a/a.go": `package a

func Used()        { Via() }
func Via()         {}
func OwnTestOnly() {}
func OtherTest()   {}
func BenchOnly()   {}
func Nobody()      { DeadOnly() }
func DeadOnly()    {}

type Public struct{}

func (Public) Facade() {}
func (Public) Orphan() {}

type RootOnly struct{}

type Conf struct{}

type S struct{}

func (S) String() string { return "" }
func (S) Extra()         {}
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { OwnTestOnly(); S{}.Extra() }\n",
		"internal/b/b.go":      "package b\n",
		"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/a\"\n)\n\nfunc TestOther(t *testing.T) { a.OtherTest() }\n",
		"bench/go.mod":         "module fix/bench\n\ngo 1.22\n",
		"bench/main.go":        "package main\n\nimport \"fix/internal/a\"\n\nfunc main() { a.BenchOnly() }\n",
		"examples/ex/main.go":  "package main\n\nimport \"fix\"\n\nfunc main() { fix.T{}.Facade(); fix.Open() }\n",
	})
	found, err := deadExports(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.DeadOnly: referenced only by flagged exports",
		"a.Nobody: referenced nowhere",
		"a.OwnTestOnly: referenced only by its own package's tests",
		"a.Public.Orphan: referenced nowhere",
		"a.RootOnly: referenced only by flagged exports",
		"a.S.Extra: referenced only by its own package's tests",
		"fix.Nobody: " + rootUnused,
		"fix.Unnamed: " + rootUnused,
	}
	checkFixture(t, found, want)
}

// TestUnsetOptionsFixture runs the option guard on a tree made for it: a
// field of an option struct that nothing sets, or only its own package's
// defaulting, is flagged; one set by another package's test, by the bench
// module, by its own package's test or in a preset literal is not, nor is
// any field of a struct that is not named as an option struct.
func TestUnsetOptionsFixture(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/a/a.go": `package a

type Config struct {
	Nobody    int
	Defaulted int
	OtherTest int
	Bench     int
	Preset    int
	OwnTest   int
	internal  int
}

type RunConfig struct{ Window int }

type Options struct{ Fast bool }

type Plain struct{ Unset int }

var Quick = Options{Fast: true}

func (c *Config) withDefaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 4
	}
	c.internal = 1
}

var _ = Config{Preset: 1}
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { c := Config{}; c.OwnTest++; c.withDefaults() }\n",
		"internal/b/b.go":      "package b\n",
		"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/a\"\n)\n\nfunc TestOther(t *testing.T) { var c a.Config; c.OtherTest = 2; _ = c }\n",
		"bench/go.mod":         "module fix/bench\n\ngo 1.22\n",
		"bench/main.go":        "package main\n\nimport \"fix/internal/a\"\n\nfunc main() { var c a.Config; p := &c.Bench; *p = 3 }\n",
	})
	l, modPath, paths, err := loadTree(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, l.unsetOptions(modPath, paths), []string{
		"a.Config.Defaulted: set only by its own package's defaulting",
		"a.Config.Nobody: set nowhere",
		"a.RunConfig.Window: set nowhere",
	})
}

// writeTree writes files, named by slash-separated paths, under a fresh
// temporary directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// checkFixture compares a guard's findings on a fixture with want, each
// spelled "name: why".
func checkFixture(t *testing.T, found []finding, want []string) {
	t.Helper()
	var got []string
	for _, d := range found {
		got = append(got, d.name+": "+d.why)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unsetOptions reports the exported fields of root's option structs under
// internal/ — struct types named Config, …Config or Options — that no file
// counted by noteSets sets, sorted by name.
func (l *loader) unsetOptions(modPath string, paths []string) []finding {
	var out []finding
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, modPath+"/internal/")
		if !ok || l.prod[path] == nil {
			continue
		}
		scope := l.prod[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || name != "Options" && !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				set, noted := l.sets[f.Pos()]
				if set {
					continue
				}
				why := "set nowhere"
				if noted {
					why = "set only by its own package's defaulting"
				}
				out = append(out, finding{name: rel + "." + name + "." + f.Name(), pos: l.fset.Position(f.Pos()).String(), why: why})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// noteSets records the struct fields that files set, by declaration: a key
// of a composite literal anywhere counts, and so does an assignment,
// increment or address-of outside the declaring package's non-test files.
// One inside them is that package's defaulting, noted as false.
func (l *loader) noteSets(info *types.Info, files []*ast.File, from string, test bool) {
	mark := func(id *ast.Ident, literal bool) {
		if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() && f.Pkg() != nil {
			l.sets[f.Pos()] = l.sets[f.Pos()] || literal || test || f.Pkg().Path() != from
		}
	}
	// field marks the field an assignment's target names: x.F, x.F[i] or
	// (x.F).
	field := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				mark(x.Sel, false)
				return
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id, true)
				}
			}
			return true
		})
	}
}

// finding is one identifier a guard flags.
type finding struct {
	name string // package under internal/, then the identifier: "ir.Module.Clone"
	pos  string
	why  string
}

// deadExports loads the module at root and the modules in extra, and
// reports root's exported internal identifiers that no qualifying file
// references, sorted by name.
func deadExports(root string, extra ...string) ([]finding, error) {
	l, modPath, paths, err := loadTree(root, extra...)
	if err != nil {
		return nil, err
	}
	exempt, err := l.exemptMethods(modPath)
	if err != nil {
		return nil, err
	}
	var candidates []string
	where := map[string]finding{}
	dead := map[string]bool{}
	for _, d := range l.deadRoot(modPath) {
		candidates = append(candidates, d.key)
		where[d.key] = d.finding
		dead[d.key] = true
	}
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, modPath+"/internal/")
		if !ok {
			continue
		}
		pkg := l.prod[path]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			var decls []types.Object
			if obj.Exported() {
				decls = append(decls, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() && !exempt[m] {
							decls = append(decls, m)
						}
					}
				}
			}
			for _, d := range decls {
				key := objKey(d)
				candidates = append(candidates, key)
				where[key] = finding{name: rel + strings.TrimPrefix(key, path), pos: l.fset.Position(d.Pos()).String()}
			}
		}
	}

	// A reference from inside a flagged export's body does not keep
	// anything alive: flag until nothing more is.
	for changed := true; changed; {
		changed = false
		for _, key := range candidates {
			if !dead[key] && !l.live(key, dead) {
				dead[key], changed = true, true
			}
		}
	}
	var out []finding
	for _, key := range candidates {
		if !dead[key] {
			continue
		}
		d := where[key]
		if d.why == "" {
			var by []string
			if l.uses[key][ownTest] {
				by = append(by, "its own package's tests")
			}
			if len(l.uses[key]) > len(by) {
				by = append(by, "flagged exports")
			}
			d.why = "referenced nowhere"
			if len(by) > 0 {
				d.why = "referenced only by " + strings.Join(by, " and ")
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// rootUnused is why the guard flags an export of the root package.
const rootUnused = "named by no example, command or benchmark, nor in the signature of a function one calls"

// rootFinding is a flagged export of the root package, by objKey.
type rootFinding struct {
	key string
	finding
}

// deadRoot reports the root package's exports that no non-test file under
// examples/ or cmd/, or of the bench module, references and that no
// exported function those reference names in its signature. Aliases of
// internal/det and internal/diag types, and variables that are theirs, are
// exempt.
func (l *loader) deadRoot(modPath string) []rootFinding {
	pkg := l.prod[modPath]
	if pkg == nil {
		return nil
	}
	live := map[string]bool{}
	var funcs []*ast.FuncDecl
	for _, f := range l.pkgs[modPath].prod {
		imports := map[string]string{} // name in the file → import path
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		runtime := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && (imports[x.Name] == modPath+"/internal/det" || imports[x.Name] == modPath+"/internal/diag")
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && l.ext[modPath+"."+d.Name.Name] {
					funcs = append(funcs, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						live[modPath+"."+sp.Name.Name] = sp.Assign.IsValid() && runtime(sp.Type)
					case *ast.ValueSpec:
						theirs := len(sp.Values) == len(sp.Names)
						for _, v := range sp.Values {
							theirs = theirs && runtime(v)
						}
						for _, n := range sp.Names {
							live[modPath+"."+n.Name] = theirs
						}
					}
				}
			}
		}
	}
	for _, d := range funcs {
		fields := d.Type.Params.List
		if d.Type.Results != nil {
			fields = append(fields[:len(fields):len(fields)], d.Type.Results.List...)
		}
		for _, f := range fields {
			ast.Inspect(f.Type, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					live[modPath+"."+n.Name] = true
				}
				return true
			})
		}
	}
	var out []rootFinding
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if key := objKey(obj); obj.Exported() && !live[key] && !l.ext[key] {
			out = append(out, rootFinding{key, finding{name: pkg.Name() + "." + name, pos: l.fset.Position(obj.Pos()).String(), why: rootUnused}})
		}
	}
	return out
}

// loadTree loads and type-checks the module at root and the modules in
// extra, noting every reference to a module identifier and every setting
// of a struct field. It returns the loader, root's module path and every
// package's import path, sorted.
func loadTree(root string, extra ...string) (*loader, string, []string, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkgSrc{}, prod: map[string]*types.Package{}, uses: map[string]map[string]bool{}, ext: map[string]bool{}, sets: map[token.Pos]bool{}}
	for i, dir := range append([]string{root}, extra...) {
		path, err := l.loadModule(dir)
		if err != nil {
			return nil, "", nil, err
		}
		if i == 0 {
			l.mod = path
		}
	}
	modPath := l.mod
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	if err := l.loadStd(root); err != nil {
		return nil, "", nil, err
	}
	for _, path := range paths {
		if err := l.record(path); err != nil {
			return nil, "", nil, err
		}
	}
	return l, modPath, paths, nil
}

// live reports whether key has a reference that counts: another package's
// test, or a non-test file outside the body of key itself and of every
// export in dead.
func (l *loader) live(key string, dead map[string]bool) bool {
	for who := range l.uses[key] {
		if who == otherTest || who != ownTest && who != key && !dead[who] {
			return true
		}
	}
	return false
}

// Who references an identifier: a test, or a non-test file — from inside
// the body of an exported function, method or type, named by its objKey, or
// from anywhere else ("").
const (
	ownTest   = "own test"
	otherTest = "other test"
)

type pkgSrc struct {
	prod, inTest, xTest []*ast.File
	imports             map[string]bool // of the non-test files
}

type loader struct {
	fset      *token.FileSet
	std       types.Importer
	protocols *ast.File
	pkgs      map[string]*pkgSrc
	prod      map[string]*types.Package  // each package's non-test files, type-checked
	uses      map[string]map[string]bool // objKey → who references it (see ownTest)
	ext       map[string]bool            // objKeys a non-test file under examples/ or cmd/, or of bench/, references
	mod       string                     // the root module's path
	sets      map[token.Pos]bool         // struct fields set by a file that counts (see noteSets), by declaration
}

func (l *loader) loadModule(dir string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var path string
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			path = strings.TrimSpace(p)
		}
	}
	if path == "" {
		return "", fmt.Errorf("%s/go.mod: no module line", dir)
	}
	err = filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); p != dir && err == nil {
			return filepath.SkipDir // a nested module is loaded on its own
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		importPath := path
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		return l.parseDir(importPath, p)
	})
	return path, err
}

// loadStd reads the standard library from the compiler's export data,
// located by one `go list -export`: checking it from source would be most
// of the guard's time.
func (l *loader) loadStd(dir string) error {
	std := map[string]bool{}
	addImports := func(f *ast.File) {
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); l.pkgs[path] == nil && path != "unsafe" {
				std[path] = true
			}
		}
	}
	protocols, err := parser.ParseFile(l.fset, "protocols.go", protocolSrc, 0)
	if err != nil {
		return err
	}
	addImports(protocols)
	for _, src := range l.pkgs {
		for _, files := range [][]*ast.File{src.prod, src.inTest, src.xTest} {
			for _, f := range files {
				addImports(f)
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		export[path] = file
	}
	l.protocols = protocols
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return nil
}

func (l *loader) parseDir(importPath, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	src := &pkgSrc{imports: map[string]bool{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			src.prod = append(src.prod, f)
			for _, imp := range f.Imports {
				src.imports[strings.Trim(imp.Path.Value, `"`)] = true
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			src.xTest = append(src.xTest, f)
		default:
			src.inTest = append(src.inTest, f)
		}
	}
	if len(src.prod)+len(src.inTest)+len(src.xTest) > 0 {
		l.pkgs[importPath] = src
	}
	return nil
}

// record type-checks every variant of the package at path — its non-test
// files, those with its in-package tests, its external tests — and notes
// whom each reference to a module identifier comes from.
func (l *loader) record(path string) error {
	src := l.pkgs[path]
	if len(src.prod) > 0 {
		if _, err := l.importProd(path); err != nil {
			return err
		}
	}
	var testPkg *types.Package
	if len(src.inTest) > 0 {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := l.check(path, append(append([]*ast.File{}, src.prod...), src.inTest...), &variant{l: l}, info)
		if err != nil {
			return err
		}
		testPkg = pkg
		l.note(info, src.inTest, path, true)
	}
	if len(src.xTest) > 0 {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		v := &variant{l: l}
		if testPkg != nil {
			v.path, v.pkg, v.memo = path, testPkg, map[string]*types.Package{}
		}
		if _, err := l.check(path+"_test", src.xTest, v, info); err != nil {
			return err
		}
		l.note(info, src.xTest, path, true)
	}
	return nil
}

func (l *loader) importProd(path string) (*types.Package, error) {
	if pkg, ok := l.prod[path]; ok {
		return pkg, nil
	}
	src := l.pkgs[path]
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := l.check(path, src.prod, &variant{l: l}, info)
	if err != nil {
		return nil, err
	}
	l.prod[path] = pkg
	l.note(info, src.prod, path, false)
	return pkg, nil
}

func (l *loader) check(path string, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	var errs []string
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	return pkg, nil
}

func (l *loader) note(info *types.Info, files []*ast.File, from string, test bool) {
	l.noteSets(info, files, from, test)
	in := map[*token.File]bool{}
	var bodies []exportBody // of files, in position order
	for _, f := range files {
		in[l.fset.File(f.Pos())] = true
		if test {
			continue // a test's reference counts by package alone
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					bodies = append(bodies, exportBody{d.Pos(), d.End(), objKey(info.Defs[d.Name])})
				}
				return false
			case *ast.TypeSpec:
				if d.Name.IsExported() {
					bodies = append(bodies, exportBody{d.Pos(), d.End(), objKey(info.Defs[d.Name])})
				}
				return false
			}
			return true
		})
	}
	sort.Slice(bodies, func(i, j int) bool { return bodies[i].pos < bodies[j].pos })
	for id, obj := range info.Uses {
		if !in[l.fset.File(id.Pos())] || obj.Pkg() == nil || l.pkgs[obj.Pkg().Path()] == nil {
			continue
		}
		key := objKey(obj)
		if key == "" {
			continue
		}
		who := ""
		if i := sort.Search(len(bodies), func(i int) bool { return bodies[i].end > id.Pos() }); i < len(bodies) && bodies[i].pos <= id.Pos() {
			who = bodies[i].key
		}
		if test {
			who = otherTest
			if obj.Pkg().Path() == from {
				who = ownTest
			}
		}
		if l.uses[key] == nil {
			l.uses[key] = map[string]bool{}
		}
		l.uses[key][who] = true
		if !test && l.public(from) {
			l.ext[key] = true
		}
	}
}

// public reports whether the package at path is one of the root package's
// users: a program under examples/ or cmd/, or the bench module.
func (l *loader) public(path string) bool {
	rel, ok := strings.CutPrefix(path, l.mod+"/")
	return ok && (rel == "bench" || strings.HasPrefix(rel, "bench/") || strings.HasPrefix(rel, "examples/") || strings.HasPrefix(rel, "cmd/"))
}

// exportBody is the source span of an exported function, method or type.
type exportBody struct {
	pos, end token.Pos
	key      string
}

// variant imports module packages for one type-check. With path set it is
// the importer of path's external tests: path resolves to its test variant,
// and every module package that depends on path is checked again against it,
// as the go command builds them.
type variant struct {
	l    *loader
	path string
	pkg  *types.Package
	memo map[string]*types.Package
}

func (v *variant) Import(path string) (*types.Package, error) {
	if v.l.pkgs[path] == nil {
		return v.l.std.Import(path)
	}
	if v.path == "" || !v.l.dependsOn(path, v.path) {
		return v.l.importProd(path)
	}
	if path == v.path {
		return v.pkg, nil
	}
	if pkg, ok := v.memo[path]; ok {
		return pkg, nil
	}
	pkg, err := v.l.check(path, v.l.pkgs[path].prod, v, &types.Info{})
	if err != nil {
		return nil, err
	}
	v.memo[path] = pkg
	return pkg, nil
}

func (l *loader) dependsOn(from, to string) bool {
	if from == to {
		return true
	}
	for imp := range l.pkgs[from].imports {
		if l.pkgs[imp] != nil && l.dependsOn(imp, to) {
			return true
		}
	}
	return false
}

// objKey names a package-level object or method as "path.Name" or
// "path.Type.Method", and anything else (fields, locals) as "".
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return o.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// protocolSrc lists the standard interfaces whose methods are called
// through the interface, never by name.
const protocolSrc = `package protocols

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	p01 = error
	p02 = fmt.Stringer
	p03 = fmt.GoStringer
	p04 = fmt.Formatter
	p05 = json.Marshaler
	p06 = json.Unmarshaler
	p07 = encoding.TextMarshaler
	p08 = encoding.TextUnmarshaler
	p09 = encoding.BinaryMarshaler
	p10 = encoding.BinaryUnmarshaler
	p11 = io.Reader
	p12 = io.Writer
	p13 = io.Closer
	p14 = io.ReaderAt
	p15 = io.WriterTo
	p16 = io.ReaderFrom
	p17 = io.Seeker
	p18 = http.Handler
	p19 = http.RoundTripper
	p20 = sort.Interface
	p21 = heap.Interface
	p22 = flag.Value
	p23 interface{ AppendBinary([]byte) ([]byte, error) }
	p24 interface{ Unwrap() error }
	p25 interface{ Unwrap() []error }
	p26 interface{ Is(error) bool }
	p27 interface{ As(any) bool }
	p28 interface{ Timeout() bool }
)
`

// exemptMethods returns the methods that need no caller by name: those
// that satisfy a protocol interface or an interface declared in the
// module, and those of the types the root package aliases that some file
// references.
func (l *loader) exemptMethods(modPath string) (map[*types.Func]bool, error) {
	protocols, err := l.check("protocols", []*ast.File{l.protocols}, &variant{l: l}, &types.Info{})
	if err != nil {
		return nil, err
	}
	var ifaces []*types.Interface
	collect := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	collect(protocols.Scope())
	for _, pkg := range l.prod {
		collect(pkg.Scope())
	}

	exempt := map[*types.Func]bool{}
	for path, pkg := range l.prod {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if tn.IsAlias() {
				if path == modPath && named.Obj().Pkg() != pkg {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); len(l.uses[objKey(m)]) > 0 {
							exempt[m] = true
						}
					}
				}
				continue
			}
			if named.TypeParams().Len() > 0 {
				continue
			}
			for _, iface := range ifaces {
				if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					if m, _, _ := types.LookupFieldOrMethod(named, true, pkg, iface.Method(i).Name()); m != nil {
						exempt[m.(*types.Func)] = true
					}
				}
			}
		}
	}
	return exempt, nil
}
