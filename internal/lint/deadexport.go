package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// DeadExport returns the deadexport analyzer: every exported func,
// method, type, const and var declared in a non-test file under
// internal/ must be referenced by non-test code of the module outside
// its own declaration. A symbol only tests use is a test oracle and
// belongs in a _test.go file. The root package (the public API), main
// packages and testdata are out of scope, and a method is exempt when
// its receiver implements an interface naming it — any interface the
// module's non-test code mentions, plus fmt.Stringer and error — since
// interface dispatch calls it without naming it. An exported field of
// an exported struct type there must also be set by non-test code: a
// key in a composite literal, a position in an unkeyed one, the left
// side of an assignment or ++/--, or the operand of &, unless it only
// gives the field its default: inside an if that compares the same field
// with a constant or nil. A field with a json tag is exempt, since
// encoding/json sets it. The findings are computed once per module; each
// package pass emits its own.
func DeadExport() *Analyzer {
	a := &Analyzer{
		Name: "deadexport",
		Doc:  "every exported symbol under internal/ needs a non-test reference, and every exported field a non-test setter; test oracles belong in _test.go files",
	}
	a.Run = func(pass *Pass) {
		if pass.Mod == nil {
			return
		}
		pass.reportOwn(pass.Mod.deadExports())
	}
	return a
}

// deadExports computes (once) the module's deadexport findings.
func (m *Module) deadExports() []unitDiag {
	m.deadOnce.Do(func() { m.deadDiags = computeDeadExports(m) })
	return m.deadDiags
}

// exportDecl is one exported declaration under scrutiny.
type exportDecl struct {
	unit *Package
	name *ast.Ident
	kind string // "func", "method", "type", "const", "var" or "field"
	recv string // the receiver's type name, for methods and fields
	used bool   // referenced, or for a field, set
}

type span struct{ from, to token.Pos }

// computeDeadExports indexes the exported declarations by their stable
// key ("pkgpath.Name", or "pkgpath.Recv.Name" for methods, as funcID
// spells it), marks every key a non-test identifier resolves to outside
// the declaration's own ranges, and reports the rest, less the methods
// that satisfy a mentioned interface. String keys matter: units with
// in-package tests are re-checked and carry fresh objects.
func computeDeadExports(m *Module) []unitDiag {
	decls := map[string]*exportDecl{}
	var order []string
	// own holds, by key, the source ranges that make up a declaration
	// itself; references inside them (recursion, a type's own method
	// receivers) do not keep the symbol alive.
	own := map[string][]span{}
	// fields holds the exported struct fields by declaring position,
	// which re-checked twins share.
	fields := map[token.Pos]*exportDecl{}
	var fieldOrder []token.Pos
	add := func(key string, d *exportDecl, from, to token.Pos) {
		decls[key] = d
		order = append(order, key)
		own[key] = append(own[key], span{from, to})
	}
	for _, pkg := range nonTestUnits(m) {
		if !strings.HasPrefix(pkg.Dir, "internal/") || pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
					if fn == nil || !decl.Name.IsExported() {
						continue
					}
					d := &exportDecl{unit: pkg, name: decl.Name, kind: "func"}
					if decl.Recv != nil {
						d.kind = "method"
						// The receiver names its type without using it.
						if tn := recvTypeName(pkg.Info, decl); tn != nil {
							d.recv = tn.Name()
							own[objKey(tn)] = append(own[objKey(tn)], span{decl.Recv.Pos(), decl.Recv.End()})
						}
					}
					add(string(funcID(fn)), d, decl.Pos(), decl.End())
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if !spec.Name.IsExported() {
								continue
							}
							add(pkg.Path+"."+spec.Name.Name, &exportDecl{unit: pkg, name: spec.Name, kind: "type"}, spec.Pos(), spec.End())
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								if field.Tag != nil && hasJSONTag(field.Tag.Value) {
									continue
								}
								for _, id := range field.Names {
									if id.IsExported() {
										fields[id.Pos()] = &exportDecl{unit: pkg, name: id, kind: "field", recv: spec.Name.Name}
										fieldOrder = append(fieldOrder, id.Pos())
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									add(pkg.Path+"."+id.Name, &exportDecl{unit: pkg, name: id, kind: decl.Tok.String()}, spec.Pos(), spec.End())
								}
							}
						}
					}
				}
			}
		}
	}

	// One walk over the non-test files marks the referenced keys and the
	// set fields, and collects the interfaces that exempt a method.
	ifaces := newIfaceSet()
	for _, pkg := range nonTestUnits(m) {
		setField := func(v types.Object) {
			if v, ok := v.(*types.Var); ok && v.IsField() {
				if d := fields[v.Origin().Pos()]; d != nil {
					d.used = true
				}
			}
		}
		defaults := map[*ast.SelectorExpr]bool{} // c.F in `if c.F <= 0 { c.F = 600 }`
		setSelector := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && !defaults[sel] {
				setField(pkg.Info.Uses[sel.Sel])
			}
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := pkg.Info.Uses[n]
					if obj == nil {
						return true
					}
					if tn, ok := obj.(*types.TypeName); ok {
						ifaces.addNamed(m, tn)
					}
					key := objKey(obj)
					if d := decls[key]; d != nil && !d.used && !within(own[key], n.Pos()) {
						d.used = true
					}
				case *ast.InterfaceType:
					ifaces.add(pkg.Info.TypeOf(n))
				case *ast.CompositeLit:
					st := litStruct(pkg.Info.TypeOf(n))
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								setField(pkg.Info.Uses[key])
							}
						} else if st != nil && i < st.NumFields() {
							setField(st.Field(i))
						}
					}
				case *ast.IfStmt:
					bin, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
					if !ok || bin.Op.Precedence() != token.EQL.Precedence() {
						return true
					}
					sel, ok := ast.Unparen(bin.X).(*ast.SelectorExpr)
					if tv := pkg.Info.Types[bin.Y]; !ok || tv.Value == nil && !tv.IsNil() {
						return true
					}
					ast.Inspect(n.Body, func(c ast.Node) bool {
						if w, ok := c.(*ast.SelectorExpr); ok && pkg.Info.Uses[w.Sel] == pkg.Info.Uses[sel.Sel] {
							defaults[w] = true
						}
						return true
					})
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							setSelector(lhs)
						}
					}
				case *ast.IncDecStmt:
					setSelector(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSelector(n.X)
					}
				case *ast.CallExpr:
					// A call passing a value as an interface parameter
					// (heap.Push, sort.Sort, rand.New) mentions that
					// interface without naming it.
					if sig, ok := pkg.Info.TypeOf(n.Fun).(*types.Signature); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							ifaces.add(sig.Params().At(i).Type())
						}
					}
				}
				return true
			})
		}
	}

	var out []unitDiag
	for _, key := range order {
		d := decls[key]
		if d.used {
			continue
		}
		label := pkgBaseName(d.unit.Path) + "." + d.name.Name
		if d.kind == "method" {
			if ifaces.satisfied(m.BaseTypes[d.unit.Path], d.recv, d.name.Name) {
				continue
			}
			label = pkgBaseName(d.unit.Path) + "." + d.recv + "." + d.name.Name
		}
		out = append(out, unitDiag{unit: d.unit, pos: d.name.Pos(), msg: fmt.Sprintf(
			"exported %s %s has no non-test reference in the module; delete it, move it into a _test.go file if tests use it as an oracle, or annotate why it stays",
			d.kind, label)})
	}
	for _, pos := range fieldOrder {
		d := fields[pos]
		if d.used {
			continue
		}
		out = append(out, unitDiag{unit: d.unit, pos: pos, msg: fmt.Sprintf(
			"exported field %s.%s.%s is never set by non-test code in the module; delete it and keep its default, or annotate why it stays",
			pkgBaseName(d.unit.Path), d.recv, d.name.Name)})
	}
	return out
}

// hasJSONTag reports whether a raw struct tag literal has a json key.
func hasJSONTag(lit string) bool {
	tag, err := strconv.Unquote(lit)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// litStruct returns the struct type a composite literal builds, through
// the pointer of an elided &T in a slice literal; nil for a literal of
// any other type.
func litStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// within reports whether pos falls inside one of the spans.
func within(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}

// nonTestUnits lists the units that hold non-test files: every unit but
// the external _test packages.
func nonTestUnits(m *Module) []*Package {
	var out []*Package
	for _, pkg := range m.Pkgs {
		if !strings.HasSuffix(pkg.Path, "_test") {
			out = append(out, pkg)
		}
	}
	return out
}

// objKey is the stable identity of a package-level object or method:
// funcID for functions, "pkgpath.Name" otherwise, "" for local objects.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return string(funcID(fn.Origin()))
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvTypeName returns the named type a method declaration's receiver
// names, through any pointer and type parameters.
func recvTypeName(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, _ := info.Uses[id].(*types.TypeName)
	return tn
}

// ifaceSet holds, by method name, every interface the module's non-test
// code mentions, plus fmt.Stringer and error.
type ifaceSet map[string][]*types.Interface

func newIfaceSet() ifaceSet {
	s := ifaceSet{}
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	s.add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete())
	s.add(types.Universe.Lookup("error").Type())
	return s
}

// add records t when it is an interface with methods; repeats are
// harmless.
func (s ifaceSet) add(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		if !slices.Contains(s[name], iface) {
			s[name] = append(s[name], iface)
		}
	}
}

// addNamed records a named interface, taking a module type from the
// pass-1 generation (Module.BaseTypes) so types.Implements compares
// like with like.
func (s ifaceSet) addNamed(m *Module, tn *types.TypeName) {
	if tn.Pkg() != nil {
		if base := m.BaseTypes[tn.Pkg().Path()]; base != nil {
			if twin, ok := base.Scope().Lookup(tn.Name()).(*types.TypeName); ok {
				tn = twin
			}
		}
	}
	s.add(tn.Type())
}

// satisfied reports whether recv (a type declared in pkg) or a pointer
// to it implements some recorded interface that names method.
func (s ifaceSet) satisfied(pkg *types.Package, recv, method string) bool {
	if pkg == nil {
		return false
	}
	tn, ok := pkg.Scope().Lookup(recv).(*types.TypeName)
	if !ok {
		return false
	}
	for _, iface := range s[method] {
		if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
			return true
		}
	}
	return false
}
