package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
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
	// (call graph + effect summaries) shared by every analyzer task.
	interpOnce sync.Once
	interp     *Interp

	// pureOnce guards pureDiags, the pureplan analyzer's module-wide
	// violation list (each per-package task emits only its own slice).
	pureOnce  sync.Once
	pureDiags []unitDiag

	// deadOnce guards deadDiags, the deadexport analyzer's module-wide
	// findings.
	deadOnce  sync.Once
	deadDiags []unitDiag
}

// rawPkg is one package directory before type checking.
type rawPkg struct {
	path     string // import path
	dir      string // slash-relative to root
	base     []*ast.File
	inTest   []*ast.File // _test.go files in the base package
	extTest  []*ast.File // _test.go files in the <name>_test package
	src      map[string][]byte
	deps     []string // module-internal imports of the base files
	testDeps []string // module-internal imports of the test files
}

// Load parses and type-checks every package of the module rooted at
// root, using only the standard library: module-internal imports resolve
// against the packages loaded here, standard-library imports through the
// stdlib source importer. Any parse or type error aborts the load — the
// analyzers only ever see well-typed code.
func Load(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}

	// Discovery walk: collect the .go files first, then read and parse
	// them in parallel — a FileSet is safe for concurrent use, and every
	// downstream consumer sorts before emitting, so worker scheduling
	// never reaches the output.
	fset := token.NewFileSet()
	type parseJob struct {
		path string // absolute file path
		rel  string // slash-relative package dir
	}
	var jobs []parseJob
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
		jobs = append(jobs, parseJob{path: path, rel: filepath.ToSlash(rel)})
		return nil
	})
	if err != nil {
		return nil, err
	}

	type parseResult struct {
		src  []byte
		file *ast.File
		err  error
	}
	parsed := make([]parseResult, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &parsed[i]
			r.src, r.err = os.ReadFile(jobs[i].path)
			if r.err != nil {
				return
			}
			r.file, r.err = parser.ParseFile(fset, jobs[i].path, r.src, parser.ParseComments|parser.SkipObjectResolution)
		}()
	}
	wg.Wait()

	// Assemble packages in the deterministic walk order, failing on the
	// first (walk-ordered) parse error.
	raws := map[string]*rawPkg{} // by import path
	for i, job := range jobs {
		if parsed[i].err != nil {
			return nil, parsed[i].err
		}
		importPath := modPath
		if job.rel != "." {
			importPath = modPath + "/" + job.rel
		}
		rp := raws[importPath]
		if rp == nil {
			rp = &rawPkg{path: importPath, dir: job.rel, src: map[string][]byte{}}
			raws[importPath] = rp
		}
		file := parsed[i].file
		rp.src[filepath.Base(job.path)] = parsed[i].src
		switch {
		case strings.HasSuffix(job.path, "_test.go") && strings.HasSuffix(file.Name.Name, "_test"):
			rp.extTest = append(rp.extTest, file)
		case strings.HasSuffix(job.path, "_test.go"):
			rp.inTest = append(rp.inTest, file)
		default:
			rp.base = append(rp.base, file)
		}
	}

	// Record module-internal dependencies for topological checking.
	for _, rp := range raws {
		rp.deps = internalImports(modPath, rp.base)
		rp.testDeps = internalImports(modPath, append(append([]*ast.File{}, rp.inTest...), rp.extTest...))
		sortFilesByName(fset, rp.base)
		sortFilesByName(fset, rp.inTest)
		sortFilesByName(fset, rp.extTest)
	}

	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := &moduleImporter{modPath: modPath, checked: checked, std: std}

	// Pass 1: base packages, wave-parallel. Packages are grouped into
	// dependency levels (a package's level is one past its deepest
	// module-internal dependency); every package within a level can
	// type-check concurrently because its imports all resolved in earlier
	// levels. The shared source importer is serialized inside
	// moduleImporter, and results land in the coordinator between waves,
	// so checked/baseInfo never see concurrent writes. Errors surface in
	// import-path order for deterministic output.
	order, err := topoOrder(raws)
	if err != nil {
		return nil, err
	}
	baseInfo := map[string]*types.Info{}
	level := map[string]int{}
	maxLevel := 0
	for _, path := range order { // topological: dependencies come first
		lvl := 0
		for _, dep := range raws[path].deps {
			if _, ok := raws[dep]; ok && level[dep]+1 > lvl {
				lvl = level[dep] + 1
			}
		}
		level[path] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}
	type checkResult struct {
		pkg  *types.Package
		info *types.Info
		err  error
	}
	for lvl := 0; lvl <= maxLevel; lvl++ {
		var wave []string
		for _, path := range order {
			if level[path] == lvl && len(raws[path].base) > 0 {
				wave = append(wave, path)
			}
		}
		sort.Strings(wave) // errors below surface in import-path order
		results := make([]checkResult, len(wave))
		var cwg sync.WaitGroup
		for i := range wave {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				r := &results[i]
				r.pkg, r.info, r.err = check(fset, imp, wave[i], raws[wave[i]].base)
			}()
		}
		cwg.Wait()
		for i := range results {
			if results[i].err != nil {
				return nil, results[i].err
			}
		}
		for i, path := range wave {
			checked[path] = results[i].pkg
			baseInfo[path] = results[i].info
		}
	}

	// Pass 2: analysis units, fully parallel — every unit's imports
	// resolve to the pass-1 objects (so import cycles through test files
	// cannot occur), making the units independent of each other. A package
	// with in-package test files is re-checked with them included;
	// external test packages become their own units.
	type unitJob struct {
		path    string
		rp      *rawPkg
		files   []*ast.File
		recheck bool // needs its own type-check (merged or external unit)
	}
	var units []unitJob
	for _, path := range order {
		rp := raws[path]
		if len(rp.base) > 0 {
			u := unitJob{path: path, rp: rp, files: rp.base}
			if len(rp.inTest) > 0 {
				u.files = append(append([]*ast.File{}, rp.base...), rp.inTest...)
				sortFilesByName(fset, u.files)
				u.recheck = true
			}
			units = append(units, u)
		}
		if len(rp.extTest) > 0 {
			units = append(units, unitJob{path: path + "_test", rp: rp, files: rp.extTest, recheck: true})
		}
	}
	unitResults := make([]checkResult, len(units))
	var uwg sync.WaitGroup
	for i := range units {
		uwg.Add(1)
		go func() {
			defer uwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &unitResults[i]
			u := units[i]
			if !u.recheck {
				r.pkg, r.info = checked[u.path], baseInfo[u.path]
				return
			}
			r.pkg, r.info, r.err = check(fset, imp, u.path, u.files)
		}()
	}
	uwg.Wait()

	mod := &Module{Root: absRoot, Path: modPath, Fset: fset, BaseTypes: checked}
	for i, u := range units {
		if unitResults[i].err != nil {
			return nil, unitResults[i].err
		}
		mod.Pkgs = append(mod.Pkgs, &Package{
			Path: u.path, ModPath: modPath, Dir: u.rp.dir, Fset: fset,
			Files: u.files, Src: u.rp.src, Info: unitResults[i].info, Types: unitResults[i].pkg,
		})
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
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
// and everything else through the stdlib source importer. Import is
// safe for concurrent use: the stdlib source importer type-checks
// standard-library source on demand and is not itself concurrency-safe,
// so the whole lookup is serialized under mu. (Per-worker importers
// would be faster but would break type identity — two copies of
// sync.Mutex would no longer be the same types.Type.)
type moduleImporter struct {
	modPath string
	mu      sync.Mutex
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		pkg, ok := m.checked[path]
		if !ok {
			return nil, fmt.Errorf("module package %q not loaded (import cycle or missing directory?)", path)
		}
		return pkg, nil
	}
	return m.std.Import(path)
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
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
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
