package lint

import (
	"go/ast"
	"go/constant"
	"go/token"

	"uavdc/internal/obs"
)

// obsNameMethods maps the obs/trace API methods that accept an
// instrumentation name (always the first argument) to the registry kind
// the name must be registered under.
var obsNameMethods = map[string]map[string]obs.NameKind{
	"internal/obs": {
		"Counter":   obs.KindCounter,
		"Histogram": obs.KindHistogram,
		"Gauge":     obs.KindGauge,
	},
	"internal/trace": {
		"Begin": obs.KindSpan,
		"Event": obs.KindEvent,
	},
}

// ObsNames returns the obsnames analyzer: every name reaching
// obs.Recorder.Counter/Histogram/Gauge or trace.Tracer.Begin/Event must
// resolve, at compile time, to an entry of internal/obs's canonical
// registry (names.go) under the matching kind. Run-time-composed names
// are allowed only as <constant prefix ending in "/"> + <dynamic
// suffix> where "prefix/*" is a registered wildcard (the executor's
// mission/* vocabulary). Anything else — unregistered names, kind
// mismatches, fully dynamic names — is a diagnostic, so the recorded
// vocabulary cannot drift from the registry or, via the registry's
// cross-check test, from EXPERIMENTS.md. Test files are exempt (tests
// use scratch names).
func ObsNames() *Analyzer {
	a := &Analyzer{
		Name: "obsnames",
		Doc:  "instrumentation names must be registered in internal/obs's canonical registry",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || !isMethod(fn) {
					return true
				}
				var want obs.NameKind
				found := false
				for dir, methods := range obsNameMethods {
					if funcPkgPath(fn) == pass.Pkg.ModPath+"/"+dir {
						if kind, ok := methods[fn.Name()]; ok {
							want, found = kind, true
						}
						break
					}
				}
				if !found {
					return true
				}
				checkObsName(pass, call, fn.Name(), want)
				return true
			})
		}
	}
	return a
}

// checkObsName validates the name argument of one obs/trace API call.
func checkObsName(pass *Pass, call *ast.CallExpr, method string, want obs.NameKind) {
	info := pass.Pkg.Info
	arg := ast.Unparen(call.Args[0])
	tv := info.Types[arg]

	// Compile-time constant name: exact (or wildcard-covered) lookup.
	if tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		kind, ok := obs.LookupCanonical(name)
		switch {
		case !ok:
			pass.Reportf(arg.Pos(),
				"instrumentation name %q passed to %s is not in the canonical registry (internal/obs/names.go); register and document it in EXPERIMENTS.md",
				name, method)
		case kind != want:
			pass.Reportf(arg.Pos(),
				"instrumentation name %q is registered as a %s but passed to %s (wants a %s)",
				name, kind, method, want)
		}
		return
	}

	// Constant-prefix composition: prefix must end in "/" and have a
	// registered "prefix/*" wildcard of the right kind.
	if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if ltv := info.Types[bin.X]; ltv.Value != nil && ltv.Value.Kind() == constant.String {
			prefix := constant.StringVal(ltv.Value)
			kind, ok := obs.LookupCanonicalPrefix(prefix)
			switch {
			case !ok:
				pass.Reportf(arg.Pos(),
					"run-time-composed instrumentation name with prefix %q has no %q wildcard in the canonical registry",
					prefix, trimSlash(prefix)+"/*")
			case kind != want:
				pass.Reportf(arg.Pos(),
					"instrumentation prefix %q is registered as a %s wildcard but passed to %s (wants a %s)",
					prefix, kind, method, want)
			}
			return
		}
	}

	pass.Reportf(arg.Pos(),
		"non-constant instrumentation name passed to %s; use a registered constant, or a registered-wildcard prefix + dynamic suffix, or annotate generic plumbing",
		method)
}

// trimSlash drops one trailing slash for wildcard display.
func trimSlash(s string) string {
	if len(s) > 0 && s[len(s)-1] == '/' {
		return s[:len(s)-1]
	}
	return s
}
