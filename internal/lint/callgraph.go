package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// FuncID is a stable, generation-independent identity for a module
// function: "pkgpath.Recv.Name" for methods, "pkgpath.Name" for plain
// functions, "parentID.funcN" for the N-th function literal inside a
// parent (N in source order). String identity matters: units with
// in-package tests are re-checked and carry fresh *types.Func objects,
// while cross-package call sites resolve to the pass-1 objects — the
// same function must land on the same node either way.
type FuncID string

// Edge is one call-graph edge, anchored at the call (or reference)
// site.
type Edge struct {
	// Callee is the target's FuncID.
	Callee FuncID
	// Pos is the call or reference position.
	Pos token.Pos
	// Mode records how the edge arose: "call" (static call), "devirt"
	// (interface call resolved to an in-module concrete method),
	// "literal" (function literal declared inside the caller), or "ref"
	// (function or method value referenced without being called —
	// conservatively assumed callable).
	Mode string
}

// Effect is one direct observable effect inside a function body.
type Effect struct {
	// Kind classifies the effect.
	Kind EffectKind
	// Pos is the effect site.
	Pos token.Pos
	// Desc labels the site for diagnostics ("time.Now", "write to
	// package-level var planCount").
	Desc string
}

// FuncNode is one function (or function literal) of the module.
type FuncNode struct {
	// ID is the node's stable identity.
	ID FuncID
	// Display is the short human name used in call chains
	// ("core.Algorithm2.Plan", "tsp.TwoOpt.func1").
	Display string
	// Pkg is the analysis unit holding the body — diagnostics anchored
	// in this node belong to that unit's pass.
	Pkg *Package
	// Pos is the declaration position.
	Pos token.Pos
	// Edges are the outgoing calls/references, in source order.
	Edges []Edge
	// Effects are the direct effects, in source order.
	Effects []Effect

	litCount int // function literals seen so far, for child naming
}

// Graph is the same-module call graph: a node per function declaration
// and function literal in non-test code, edges for static calls,
// devirtualized interface calls, literals, and function/method values.
type Graph struct {
	// Nodes maps each FuncID to its node.
	Nodes map[FuncID]*FuncNode
	// order lists node IDs in deterministic build order (unit path,
	// file name, declaration order).
	order []FuncID
}

// funcID derives the stable identity of a named function or method.
func funcID(fn *types.Func) FuncID {
	pkg := funcPkgPath(fn)
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return FuncID(pkg + "." + named.Obj().Name() + "." + fn.Name())
		}
		return FuncID(pkg + ".?." + fn.Name())
	}
	return FuncID(pkg + "." + fn.Name())
}

// displayName is the short chain label for a named function.
func displayName(fn *types.Func) string {
	short := pkgBaseName(funcPkgPath(fn))
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return short + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return short + "." + fn.Name()
}

// buildGraph constructs the call graph over every non-test function of
// the module. Test files and external-test units are excluded: the
// purity contract binds shipped code; tests exercise it.
func buildGraph(mod *Module) *Graph {
	g := &Graph{Nodes: map[FuncID]*FuncNode{}}
	dv := newDevirt(mod)
	for _, pkg := range mod.Pkgs {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				id := funcID(fn)
				if _, taken := g.Nodes[id]; taken {
					// Multiple init functions (or redeclarations across
					// build shapes) share a name; disambiguate by line.
					id = FuncID(string(id) + "#" + strconv.Itoa(mod.Fset.Position(fd.Pos()).Line))
				}
				node := &FuncNode{ID: id, Display: displayName(fn), Pkg: pkg, Pos: fd.Pos()}
				g.Nodes[id] = node
				g.order = append(g.order, id)
				w := &graphWalker{g: g, mod: mod, pkg: pkg, dv: dv}
				w.walkBody(node, fd.Body)
			}
		}
	}
	return g
}

// graphWalker builds one function's edges and effects.
type graphWalker struct {
	g   *Graph
	mod *Module
	pkg *Package
	dv  *devirt
	// consumed marks identifiers already handled as a call's callee, so
	// the reference pass does not double-count them.
	consumed map[*ast.Ident]bool
}

// inModule reports whether path belongs to the analyzed module.
func (w *graphWalker) inModule(path string) bool {
	return path == w.mod.Path || strings.HasPrefix(path, w.mod.Path+"/")
}

// walkBody populates node from body, recursing into function literals
// as child nodes.
func (w *graphWalker) walkBody(node *FuncNode, body ast.Node) {
	if w.consumed == nil {
		w.consumed = map[*ast.Ident]bool{}
	}
	info := w.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			node.litCount++
			suffix := ".func" + strconv.Itoa(node.litCount)
			child := &FuncNode{
				ID:      FuncID(string(node.ID) + suffix),
				Display: node.Display + suffix,
				Pkg:     w.pkg,
				Pos:     n.Pos(),
			}
			w.g.Nodes[child.ID] = child
			w.g.order = append(w.g.order, child.ID)
			node.Edges = append(node.Edges, Edge{Callee: child.ID, Pos: n.Pos(), Mode: "literal"})
			w.walkBody(child, n.Body)
			return false
		case *ast.CallExpr:
			w.call(node, n)
			return true
		case *ast.Ident:
			w.reference(node, n)
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.globalWrite(node, lhs)
			}
			return true
		case *ast.IncDecStmt:
			w.globalWrite(node, n.X)
			return true
		case *ast.SendStmt:
			node.Effects = append(node.Effects, Effect{Kind: EffectChan, Pos: n.Pos(), Desc: "channel send"})
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				node.Effects = append(node.Effects, Effect{Kind: EffectChan, Pos: n.Pos(), Desc: "channel receive"})
			}
			return true
		case *ast.SelectStmt:
			node.Effects = append(node.Effects, Effect{Kind: EffectChan, Pos: n.Pos(), Desc: "select"})
			return true
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					node.Effects = append(node.Effects, Effect{Kind: EffectChan, Pos: n.Pos(), Desc: "range over channel"})
				}
			}
			return true
		}
		return true
	})
}

// call classifies one call expression: builtin, static module call,
// interface call (devirtualized), external call (effect table), or
// indirect call through a function value.
func (w *graphWalker) call(node *FuncNode, call *ast.CallExpr) {
	info := w.pkg.Info
	fun := ast.Unparen(call.Fun)
	// Builtins: panic and close are effects; the rest are pure.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			w.consumed[id] = true
			switch b.Name() {
			case "panic":
				node.Effects = append(node.Effects, Effect{Kind: EffectPanic, Pos: call.Pos(), Desc: "panic"})
			case "close":
				node.Effects = append(node.Effects, Effect{Kind: EffectChan, Pos: call.Pos(), Desc: "close"})
			}
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return // directly-invoked literal: the literal edge covers it
		}
		node.Effects = append(node.Effects, Effect{Kind: EffectUnknownCallee, Pos: call.Pos(), Desc: "indirect call through a function value"})
		return
	}
	// Mark the callee identifier as consumed so the reference pass
	// does not add a duplicate "ref" edge for it.
	switch f := fun.(type) {
	case *ast.Ident:
		w.consumed[f] = true
	case *ast.SelectorExpr:
		w.consumed[f.Sel] = true
	}
	w.target(node, fn, call.Pos(), "call")
}

// reference adds a conservative edge when an identifier names a module
// function or method without calling it (function value, method value):
// once the value escapes, anything may invoke it.
func (w *graphWalker) reference(node *FuncNode, id *ast.Ident) {
	if w.consumed[id] {
		return
	}
	fn, ok := w.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	w.consumed[id] = true
	w.target(node, fn, id.Pos(), "ref")
}

// target routes a resolved function object to the right edge or effect.
func (w *graphWalker) target(node *FuncNode, fn *types.Func, pos token.Pos, mode string) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			impls := w.dv.resolve(fn)
			for _, callee := range impls {
				node.Edges = append(node.Edges, Edge{Callee: callee, Pos: pos, Mode: "devirt"})
			}
			if len(impls) == 0 {
				node.Effects = append(node.Effects, Effect{
					Kind: EffectUnknownCallee, Pos: pos,
					Desc: "interface call " + recvLabel(fn) + " with no in-module implementation",
				})
			}
			return
		}
	}
	if w.inModule(funcPkgPath(fn)) {
		node.Edges = append(node.Edges, Edge{Callee: funcID(fn), Pos: pos, Mode: mode})
		return
	}
	if kind, desc, ok := classifyExternalCall(fn); ok {
		node.Effects = append(node.Effects, Effect{Kind: kind, Pos: pos, Desc: desc})
	}
}

// globalWrite records an effect when an assignment target's base
// resolves to a package-level variable of the module. Writes through a
// pointer previously taken from a global escape this check — the
// conservative gap is documented in CONTRIBUTING.md.
func (w *graphWalker) globalWrite(node *FuncNode, lhs ast.Expr) {
	info := w.pkg.Info
	e := lhs
peel:
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel // qualified identifier: Sel names the object
					continue
				}
			}
			e = x.X
		default:
			break peel
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !w.inModule(v.Pkg().Path()) {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return
	}
	node.Effects = append(node.Effects, Effect{
		Kind: EffectGlobalWrite, Pos: lhs.Pos(),
		Desc: "write to package-level var " + pkgBaseName(v.Pkg().Path()) + "." + v.Name(),
	})
}

// devirt resolves interface method calls to the in-module concrete
// methods that could stand behind them. Candidate types come from the
// pass-1 generation (Module.BaseTypes): re-checked units carry twin
// type objects, so interfaces named at a re-checked call site are first
// mapped back to their pass-1 originals before types.Implements runs —
// one generation on both sides, or the check is vacuously false.
type devirt struct {
	mod   *Module
	named []*types.Named      // concrete module types, deterministic order
	cache map[string][]FuncID // by interface key + method name
}

func newDevirt(mod *Module) *devirt {
	dv := &devirt{mod: mod, cache: map[string][]FuncID{}}
	paths := make([]string, 0, len(mod.BaseTypes))
	for p := range mod.BaseTypes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		scope := mod.BaseTypes[p].Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			dv.named = append(dv.named, named)
		}
	}
	return dv
}

// resolve returns the FuncIDs of every in-module concrete method that
// could satisfy a call to the abstract method fn.
func (dv *devirt) resolve(fn *types.Func) []FuncID {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv().Type()
	iface, key := dv.canonical(recv)
	if iface == nil {
		return nil
	}
	key += "." + fn.Name()
	if cached, ok := dv.cache[key]; ok {
		return cached
	}
	var out []FuncID
	for _, named := range dv.named {
		var r types.Type = named
		if !types.Implements(r, iface) {
			r = types.NewPointer(named)
			if !types.Implements(r, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(r, true, named.Obj().Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, funcID(m))
		}
	}
	dv.cache[key] = out
	return out
}

// canonical maps an interface type (possibly from a re-checked unit) to
// its pass-1 twin and a stable cache key. Standard-library interfaces
// are already canonical — the loader shares one export-data importer
// per load, so their objects are identical across generations.
func (dv *devirt) canonical(recv types.Type) (*types.Interface, string) {
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			path := obj.Pkg().Path()
			if path == dv.mod.Path || strings.HasPrefix(path, dv.mod.Path+"/") {
				base := dv.mod.BaseTypes[path]
				if base == nil {
					return nil, ""
				}
				tn, ok := base.Scope().Lookup(obj.Name()).(*types.TypeName)
				if !ok {
					return nil, ""
				}
				iface, ok := tn.Type().Underlying().(*types.Interface)
				if !ok {
					return nil, ""
				}
				return iface, path + "." + obj.Name()
			}
			iface, ok := named.Underlying().(*types.Interface)
			if !ok {
				return nil, ""
			}
			return iface, path + "." + obj.Name()
		}
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil, ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	return iface, types.TypeString(recv, qual)
}
