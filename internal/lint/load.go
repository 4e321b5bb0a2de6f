package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked analysis unit: a module package together
// with its in-package _test.go files, or an external _test package. The
// analyzers see every unit; per-analyzer test-file policy is applied via
// IsTestFile.
type Package struct {
	// Path is the import path ("uavdc/internal/core"); external test
	// packages carry a "_test" suffix ("uavdc_test").
	Path string
	// ModPath is the enclosing module's path — the prefix analyzers use
	// to recognise module-internal packages.
	ModPath string
	// Dir is the package directory relative to the module root, using
	// forward slashes ("." for the root package).
	Dir string
	// Fset is the file set shared by every package of the module.
	Fset *token.FileSet
	// Files holds the parsed files of the unit, sorted by file name.
	Files []*ast.File
	// Src maps a file's base name to its raw bytes (used by the
	// suppression scanner to decide whether a directive comment trails
	// code or stands alone).
	Src map[string][]byte
	// Info is the unit's type-check result.
	Info *types.Info
	// Types is the unit's type-checked package object.
	Types *types.Package
}

// IsTestFile reports whether f is a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Filename(f), "_test.go")
}

// Filename returns f's base name.
func (p *Package) Filename(f *ast.File) string {
	return filepath.Base(p.Fset.Position(f.Package).Filename)
}

// RelPath returns f's path relative to the module root, with forward
// slashes — the form diagnostics print.
func (p *Package) RelPath(f *ast.File) string {
	if p.Dir == "." {
		return p.Filename(f)
	}
	return p.Dir + "/" + p.Filename(f)
}

// Module is a loaded, fully type-checked module.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset is the shared file set.
	Fset *token.FileSet
	// Pkgs holds every analysis unit, sorted by import path.
	Pkgs []*Package
	// BaseTypes holds the pass-1 type-checked package objects by import
	// path. Units with in-package test files are re-checked in pass 2 and
	// carry fresh type objects, but cross-package references always
	// resolve to these pass-1 objects — interprocedural consumers (the
	// call graph's devirtualizer) must match types against this one
	// generation, never against a unit's own re-checked twins.
	BaseTypes map[string]*types.Package

	// interpOnce guards interp, the module-wide interprocedural index
	// (call graph + effect summaries) shared by every analyzer.
	interpOnce sync.Once
	interp     *Interp

	// pureOnce guards pureDiags, the pureplan analyzer's module-wide
	// violation list (each per-package pass emits only its own slice).
	pureOnce  sync.Once
	pureDiags []unitDiag

	// deadOnce guards deadDiags, the deadexport analyzer's module-wide
	// findings.
	deadOnce  sync.Once
	deadDiags []unitDiag
}

// rawPkg is one package directory before type checking.
type rawPkg struct {
	path    string // import path
	dir     string // slash-relative to root
	base    []*ast.File
	inTest  []*ast.File // _test.go files in the base package
	extTest []*ast.File // _test.go files in the <name>_test package
	src     map[string][]byte
	deps    []string // module-internal imports of the base files
}

// Load parses and type-checks every package of the module rooted at
// root. Module-internal imports resolve against the packages loaded
// here; every other import resolves through the go toolchain's export
// data, located by one `go list -export -deps` run over the module's
// non-module imports. Any parse or type error, and any failure to list
// or read export data, aborts the load — the analyzers only ever see
// well-typed code.
func Load(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}

	// Walk and parse in walk order, grouping files into packages and
	// collecting every import from outside the module.
	fset := token.NewFileSet()
	raws := map[string]*rawPkg{} // by import path
	external := map[string]bool{}
	err = filepath.WalkDir(absRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != absRoot && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(absRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + rel
		}
		rp := raws[importPath]
		if rp == nil {
			rp = &rawPkg{path: importPath, dir: rel, src: map[string][]byte{}}
			raws[importPath] = rp
		}
		rp.src[filepath.Base(path)] = src
		switch {
		case strings.HasSuffix(path, "_test.go") && strings.HasSuffix(file.Name.Name, "_test"):
			rp.extTest = append(rp.extTest, file)
		case strings.HasSuffix(path, "_test.go"):
			rp.inTest = append(rp.inTest, file)
		default:
			rp.base = append(rp.base, file)
		}
		for _, spec := range file.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && !inModule(modPath, p) {
				external[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Record module-internal dependencies for topological checking.
	for _, rp := range raws {
		rp.deps = internalImports(modPath, rp.base)
		sortFilesByName(fset, rp.base)
		sortFilesByName(fset, rp.inTest)
		sortFilesByName(fset, rp.extTest)
	}

	exports, err := listExports(absRoot, external)
	if err != nil {
		return nil, err
	}
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		modPath: modPath,
		checked: checked,
		// One importer per load: every unit then shares one copy of each
		// imported package, so e.g. sync.Mutex is a single types.Type.
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file := exports[path]
			if file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}

	// Pass 1: base packages in dependency order, so every
	// module-internal import resolves to an already checked package.
	order, err := topoOrder(raws)
	if err != nil {
		return nil, err
	}
	baseInfo := map[string]*types.Info{}
	for _, path := range order {
		if len(raws[path].base) == 0 {
			continue
		}
		pkg, info, err := check(fset, imp, path, raws[path].base)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		baseInfo[path] = info
	}

	// Pass 2: analysis units. Every unit's imports resolve to the pass-1
	// objects, so import cycles through test files cannot occur. A
	// package with in-package test files is re-checked with them
	// included; external test packages become their own units.
	mod := &Module{Root: absRoot, Path: modPath, Fset: fset, BaseTypes: checked}
	addUnit := func(path string, rp *rawPkg, files []*ast.File, pkg *types.Package, info *types.Info) {
		mod.Pkgs = append(mod.Pkgs, &Package{
			Path: path, ModPath: modPath, Dir: rp.dir, Fset: fset,
			Files: files, Src: rp.src, Info: info, Types: pkg,
		})
	}
	for _, path := range order {
		rp := raws[path]
		switch {
		case len(rp.base) > 0 && len(rp.inTest) > 0:
			files := append(append([]*ast.File{}, rp.base...), rp.inTest...)
			sortFilesByName(fset, files)
			pkg, info, err := check(fset, imp, path, files)
			if err != nil {
				return nil, err
			}
			addUnit(path, rp, files, pkg, info)
		case len(rp.base) > 0:
			addUnit(path, rp, rp.base, checked[path], baseInfo[path])
		}
		if len(rp.extTest) > 0 {
			pkg, info, err := check(fset, imp, path+"_test", rp.extTest)
			if err != nil {
				return nil, err
			}
			addUnit(path+"_test", rp, rp.extTest, pkg, info)
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}

// listExports runs one `go list -export -deps` in dir over the given
// import paths and maps each listed package to its export-data file.
// The paths come from outside the module, so the module itself is never
// built.
func listExports(dir string, paths map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil // a bare `go list` would list the module instead
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	cmd := exec.Command("go", append(args, slices.Sorted(maps.Keys(paths))...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	return exports, nil
}

// check type-checks one file list as the package at path.
func check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("type-checking %s:\n  %s", path, strings.Join(errs, "\n  "))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// moduleImporter resolves module-internal imports from the loaded set
// and everything else through the export-data importer.
type moduleImporter struct {
	modPath string
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if inModule(m.modPath, path) {
		pkg, ok := m.checked[path]
		if !ok {
			return nil, fmt.Errorf("module package %q not loaded (import cycle or missing directory?)", path)
		}
		return pkg, nil
	}
	return m.std.Import(path)
}

// inModule reports whether the import path p lies inside the module.
func inModule(modPath, p string) bool {
	return p == modPath || strings.HasPrefix(p, modPath+"/")
}

// internalImports returns the module-internal import paths of files.
func internalImports(modPath string, files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if inModule(modPath, p) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// topoOrder orders packages so every base package precedes its
// dependents, rejecting import cycles.
func topoOrder(raws map[string]*rawPkg) ([]string, error) {
	paths := make([]string, 0, len(raws))
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(p string, stack []string) error
	visit = func(p string, stack []string) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle: %s", strings.Join(append(stack, p), " -> "))
		}
		state[p] = grey
		rp := raws[p]
		if rp != nil {
			for _, dep := range rp.deps {
				if _, ok := raws[dep]; ok {
					if err := visit(dep, append(stack, p)); err != nil {
						return err
					}
				}
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// sortFilesByName sorts files by base name for deterministic diagnostics.
func sortFilesByName(fset *token.FileSet, files []*ast.File) {
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Package).Filename < fset.Position(files[j].Package).Filename
	})
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
