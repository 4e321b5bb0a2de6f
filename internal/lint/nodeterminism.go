package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDeterminism returns the nodeterminism analyzer. It enforces the
// repo's byte-identical-output contract at the source level:
//
//   - no wall-clock reads (time.Now, time.Since, time.Until) outside
//     internal/trace, internal/prof, and _test.go files — planner and
//     executor output must never depend on real time;
//   - no process-global math/rand source (rand.Intn, rand.Shuffle, ...)
//     outside the same allowlist — randomness must flow from an
//     explicitly seeded *rand.Rand (see internal/rng);
//   - no order-sensitive effects inside a range over a map, anywhere
//     (test files included): appending to a slice that is not sorted
//     later in the same function, emitting obs counters or trace
//     records, writing output, or running subtests all observe Go's
//     randomized map iteration order.
func NoDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "nodeterminism",
		Doc:  "forbid wall-clock reads, global math/rand, and order-sensitive range-over-map effects",
	}
	a.Run = func(pass *Pass) {
		allowedPkg := pass.Pkg.Path == pass.Pkg.ModPath+"/internal/trace" ||
			pass.Pkg.Path == pass.Pkg.ModPath+"/internal/prof"
		for _, f := range pass.Pkg.Files {
			wallClockExempt := allowedPkg || pass.Pkg.IsTestFile(f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !wallClockExempt {
					checkClockAndRand(pass, fd.Body)
				}
				checkMapRanges(pass, fd)
			}
		}
	}
	return a
}

// checkClockAndRand reports wall-clock reads and global randomness use.
// Classification is delegated to the interprocedural effect table
// (classifyExternalCall), so nodeterminism's site rule and pureplan's
// reachability rule can never disagree on what counts as a clock or
// randomness read.
func checkClockAndRand(pass *Pass, body ast.Node) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || isMethod(fn) {
			return true
		}
		kind, desc, ok := classifyExternalCall(fn)
		if !ok {
			return true
		}
		switch kind {
		case EffectWallClock:
			pass.Reportf(call.Pos(),
				"wall-clock source %s is forbidden outside internal/trace, internal/prof and _test.go files — planner output must not depend on real time",
				desc)
		case EffectRand:
			pass.Reportf(call.Pos(),
				"global randomness source (%s) is process-global and unseeded — derive a seeded *rand.Rand (see internal/rng) instead",
				desc)
		}
		return true
	})
}

// checkMapRanges finds every range-over-map in fd and reports
// order-sensitive effects in its body.
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(info, rs) {
			return true
		}
		checkMapRangeBody(pass, fd, rs)
		return true
	})
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody walks one map-range body, skipping nested map
// ranges (they get their own check), and reports effects whose outcome
// depends on the iteration order.
func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	line := pass.Pkg.Fset.Position(rs.Pos()).Line
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs && isMapRange(info, inner) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinAppend(info, call) {
			if !appendSortedLater(pass, fd, rs, call) {
				pass.Reportf(call.Pos(),
					"append inside range over map (line %d) builds a slice in random iteration order; sort it afterwards in the same function, iterate sorted keys, or annotate",
					line)
			}
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch {
		case isRecordCall(pass, fn):
			pass.Reportf(call.Pos(),
				"obs/trace record (%s.%s) inside range over map (line %d) is emitted in random iteration order, breaking stream determinism",
				fn.Pkg().Name(), fn.Name(), line)
		case isOutputWrite(fn):
			pass.Reportf(call.Pos(),
				"output write (%s) inside range over map (line %d) happens in random iteration order; iterate sorted keys instead",
				callLabel(fn), line)
		}
		return true
	})
}

// isRecordCall reports whether fn is one of the obs/trace recording
// methods — the calls that actually emit counter updates or trace
// records (pure helpers in those packages are fine).
func isRecordCall(pass *Pass, fn *types.Func) bool {
	if !isMethod(fn) {
		return false
	}
	p := funcPkgPath(fn)
	if p != pass.Pkg.ModPath+"/internal/obs" && p != pass.Pkg.ModPath+"/internal/trace" {
		return false
	}
	return in(fn.Name(), "Counter", "Histogram", "Inc", "Add", "Observe", "Begin", "Event")
}

// appendSortedLater reports whether an append inside a map-range body is
// order-safe:
//
//   - the target is a fresh value per iteration (composite literal,
//     call result, or a variable declared inside the loop), or
//   - the appended slice is sorted after the loop in the same function —
//     the canonical collect-then-sort idiom — where "sorted" means it is
//     passed to (or receives) a sort.*/slices.* call or a function whose
//     name contains "sort" (sortCollections, sortStrings, ...).
func appendSortedLater(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, call *ast.CallExpr) bool {
	info := pass.Pkg.Info
	if len(call.Args) == 0 {
		return false
	}
	target := ast.Unparen(call.Args[0])
	switch t := target.(type) {
	case *ast.Ident:
		obj := info.Uses[t]
		if obj == nil {
			obj = info.Defs[t]
		}
		if obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			return true // per-iteration slice: append order cannot leak out
		}
	case *ast.SelectorExpr, *ast.IndexExpr:
		// Long-lived target: needs the sorted-later proof below.
	default:
		return true // composite literal or call result: fresh backing array
	}
	key := types.ExprString(target)
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(info, c)
		if fn == nil {
			return true
		}
		if !in(funcPkgPath(fn), "sort", "slices") &&
			!strings.Contains(strings.ToLower(fn.Name()), "sort") {
			return true
		}
		for _, arg := range c.Args {
			if types.ExprString(ast.Unparen(arg)) == key {
				sorted = true
				return false
			}
		}
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok &&
			types.ExprString(ast.Unparen(sel.X)) == key {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}

// isOutputWrite reports whether fn writes user-visible output or drives
// the testing framework — effects whose order matters.
func isOutputWrite(fn *types.Func) bool {
	name := fn.Name()
	switch funcPkgPath(fn) {
	case "fmt":
		return in(name, "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln")
	case "log":
		return true
	case "testing":
		return isMethod(fn) && in(name, "Error", "Errorf", "Fatal", "Fatalf", "Log", "Logf", "Skip", "Skipf", "Run")
	case "io":
		return in(name, "WriteString", "Copy")
	}
	// Writer-shaped methods on any receiver (including errw.Writer's
	// Printf family): emitting into a buffer or stream in map order is
	// just as order-dependent.
	return isMethod(fn) && in(name, "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo",
		"Print", "Printf", "Println")
}

// callLabel renders pkg.Func or (*pkg.Type).Method for diagnostics.
func callLabel(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	if isMethod(fn) {
		sig := fn.Type().(*types.Signature)
		return types.TypeString(sig.Recv().Type(), qual) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
