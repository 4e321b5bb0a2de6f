// Package lint is uavdc's stdlib-only static-analysis engine. It loads
// and type-checks the module with go/parser + go/types (no external
// tooling), then runs a set of repo-specific analyzers that enforce the
// contracts the test suite can only sample dynamically:
//
//   - nodeterminism: no wall-clock or process-global randomness sources,
//     and no order-sensitive effects inside range-over-map loops, outside
//     a small allowlist — the planners' byte-identical-output guarantee
//     is enforced at the source level.
//   - floateq: no ==/!= between floats in the numeric planner packages;
//     annotate why exact bit-equality is intended, or compare with an
//     explicit tolerance.
//   - obsnames: every counter/timer/histogram/span/event name passed to
//     the obs and trace APIs must be registered in internal/obs's
//     canonical name registry (which a test cross-checks against
//     EXPERIMENTS.md).
//   - errdrop: no silently discarded error results outside tests.
//   - unitsafety: no conversions or math.* calls that launder physical
//     dimensions past the internal/units typed quantities — cross-unit
//     casts, unit→float64 casts outside boundary packages, magnitude
//     literals cast into unit types, and math.* over unit expressions.
//   - locksafety: lock discipline over an intra-procedural CFG — no
//     copied locks, no Lock without an Unlock on every return path, no
//     double-locks, no blocking operations under a held lock.
//   - golifecycle: every goroutine outside tests must observe a
//     shutdown path — a done-channel receive, a channel range, or a
//     spawn-site-visible WaitGroup.
//   - wirefmt: every "uavdc-<name>/<version>" string literal must match
//     the internal/wire registry (which a test cross-checks against
//     EXPERIMENTS.md), current version and all.
//   - pureplan: interprocedural proof of the plan-cache purity
//     contract — a same-module call graph with per-function effect
//     summaries shows that nothing reachable from the parity-locked
//     planner entry points reads the clock or global randomness, writes
//     package-level state, or touches I/O or the environment, up to the
//     whitelisted recording sinks (obs, trace, errw). Diagnostics carry
//     the full entry→effect call chain.
//   - deadexport: every exported func, method, type, const and var
//     declared in a non-test file under internal/ has a non-test
//     reference in the module outside its own declaration; test oracles
//     belong in _test.go files. The root uavdc package, main packages
//     and testdata are exempt, and so is a method whose receiver
//     implements an interface naming it (any interface the non-test
//     code mentions, plus fmt.Stringer and error). A deliberate keep,
//     such as a symbol only the unloaded _perfbench module or another
//     package's tests use, is annotated on its declaration.
//
// Deliberate violations are annotated in place:
//
//	//uavdc:allow <analyzer> <reason>
//
// either trailing the offending line or standing alone immediately above
// it. The reason is mandatory; malformed or unknown directives are
// themselves diagnostics and cannot be suppressed — and neither can a
// stale directive, one whose analyzer ran but suppressed nothing.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"time"

	"uavdc/internal/wire"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, as used in //uavdc:allow
	// directives and diagnostic output.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports the analyzer's diagnostics for one package.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism(), FloatEq(), ObsNames(), ErrDrop(), UnitSafety(),
		LockSafety(), GoLifecycle(), WireFmt(), PurePlan(), DeadExport(),
	}
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg *Package
	// Mod is the enclosing module, for interprocedural analyzers that
	// need the whole call graph (nil in narrow unit-test harnesses).
	Mod      *Module
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.analyzer.Name,
		Path:     relTo(position.Filename, p.Pkg),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// unitDiag is one finding of a module-wide analysis, routed to the
// analysis unit that owns its site so each per-package pass emits only
// its own.
type unitDiag struct {
	unit *Package
	pos  token.Pos
	msg  string
}

// reportOwn reports the diags that belong to this pass's package.
func (p *Pass) reportOwn(diags []unitDiag) {
	for _, d := range diags {
		if d.unit == p.Pkg {
			p.Reportf(d.pos, "%s", d.msg)
		}
	}
}

// relTo rebuilds the module-relative path of an absolute filename using
// the package's directory (positions carry absolute paths).
func relTo(abs string, pkg *Package) string {
	base := abs
	for i := len(abs) - 1; i >= 0; i-- {
		if abs[i] == '/' || abs[i] == '\\' {
			base = abs[i+1:]
			break
		}
	}
	if pkg.Dir == "." {
		return base
	}
	return pkg.Dir + "/" + base
}

// Diagnostic is one finding, suppressed or not.
type Diagnostic struct {
	// Analyzer is the reporting analyzer ("directive" for malformed
	// //uavdc: comments, which are findings of the engine itself).
	Analyzer string `json:"analyzer"`
	// Path is the file path relative to the module root.
	Path string `json:"path"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
	// Suppressed marks a diagnostic covered by an //uavdc:allow
	// directive; Reason carries the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// String formats the diagnostic as path:line:col: analyzer: message,
// with a suppression suffix when covered by a directive.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.Reason)
	}
	return s
}

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
// //uavdc: directives are reported. It is not suppressible.
const DirectiveAnalyzer = "directive"

// RunTimed executes the analyzers over every package of the module and
// returns all diagnostics — suppressed ones included, marked — sorted by
// file, line, column, analyzer, plus per-analyzer wall time. Malformed
// suppression directives are reported under DirectiveAnalyzer. The
// analyzers run one after another, each over every package, and the
// returned map holds each analyzer's wall time by name, so the
// per-analyzer times add up to the analysis time.
func RunTimed(mod *Module, analyzers []*Analyzer) ([]Diagnostic, map[string]time.Duration) {
	// Directive validity is judged against the full registry, not the
	// subset that happens to run: a -analyzers errdrop pass must not
	// call every nodeterminism directive in the tree "unknown".
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}

	var diags []Diagnostic
	suppressions := map[string]*fileSuppressions{} // by module-relative path
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			rel := pkg.RelPath(f)
			if _, done := suppressions[rel]; done {
				// Base files are shared between a package unit and its
				// external-test unit's src map; scan each file once.
				continue
			}
			fs, malformed := scanSuppressions(pkg, f, known)
			suppressions[rel] = fs
			diags = append(diags, malformed...)
		}
	}

	timings := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		start := time.Now() //uavdc:allow nodeterminism task wall time only feeds the summary's per-analyzer breakdown, never planner output
		for _, pkg := range mod.Pkgs {
			a.Run(&Pass{Pkg: pkg, Mod: mod, analyzer: a, out: &diags})
		}
		timings[a.Name] = time.Since(start) //uavdc:allow nodeterminism task wall time only feeds the summary's per-analyzer breakdown, never planner output
	}

	for i := range diags {
		d := &diags[i]
		if d.Analyzer == DirectiveAnalyzer {
			continue
		}
		if fs := suppressions[d.Path]; fs != nil {
			if reason, ok := fs.covers(d.Analyzer, d.Line); ok {
				d.Suppressed = true
				d.Reason = reason
			}
		}
	}

	// Stale directives: a suppression whose analyzer ran but fired on
	// nothing is a typo-shaped mistake (wrong line, fixed code, wrong
	// analyzer) and is reported like any other directive defect.
	// Directives for analyzers outside this run are left alone — a
	// subset run cannot judge them.
	relPaths := make([]string, 0, len(suppressions))
	for rel := range suppressions {
		relPaths = append(relPaths, rel)
	}
	sort.Strings(relPaths)
	for _, rel := range relPaths {
		diags = append(diags, suppressions[rel].stale(rel, ran)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, timings
}

// Active filters diags down to the non-suppressed findings — the set CI
// fails on.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// WriteText renders one diagnostic per line.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the -json output document.
type jsonReport struct {
	// Schema tags the document format.
	Schema string `json:"schema"`
	// Module is the linted module path.
	Module string `json:"module"`
	// Diagnostics holds every finding, suppressed ones marked.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Active counts the non-suppressed findings (the CI failure
	// condition).
	Active int `json:"active"`
	// Counts maps each analyzer that reported at least one finding to
	// its total finding count, suppressed ones included (new in /2).
	Counts map[string]int `json:"counts"`
	// ElapsedMS is the load+run wall time in milliseconds, as measured
	// by the caller (new in /2). Golden tests normalise it to 0.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// JSONSchema tags uavlint's -json output document. /2 added the
// per-analyzer counts map and the elapsed_ms wall-time field.
const JSONSchema = wire.Lint

// Counts tallies diags per analyzer, suppressed findings included.
func Counts(diags []Diagnostic) map[string]int {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	return counts
}

// WriteJSON renders the diagnostics as a uavdc-lint/2 JSON document.
// elapsed is the caller-measured load+run wall time.
func WriteJSON(w io.Writer, modPath string, diags []Diagnostic, elapsed time.Duration) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Schema:      JSONSchema,
		Module:      modPath,
		Diagnostics: diags,
		Active:      len(Active(diags)),
		Counts:      Counts(diags),
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
	})
}

// WriteSummary renders the one-line human summary: total and active
// finding counts, the per-analyzer breakdown in name order, the
// load+run wall time, and — when RunTimed's timings are given — each
// analyzer's wall time in name order.
func WriteSummary(w io.Writer, diags []Diagnostic, timings map[string]time.Duration, elapsed time.Duration) error {
	counts := Counts(diags)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var breakdown string
	for i, name := range names {
		if i > 0 {
			breakdown += ", "
		}
		breakdown += fmt.Sprintf("%s %d", name, counts[name])
	}
	if breakdown == "" {
		breakdown = "none"
	}
	var timing string
	if len(timings) > 0 {
		tnames := make([]string, 0, len(timings))
		for name := range timings {
			tnames = append(tnames, name)
		}
		sort.Strings(tnames)
		timing = " (analyzers:"
		for i, name := range tnames {
			if i > 0 {
				timing += ","
			}
			timing += fmt.Sprintf(" %s %dms", name, timings[name].Milliseconds())
		}
		timing += ")"
	}
	_, err := fmt.Fprintf(w, "uavlint: %d finding(s), %d active [%s] in %dms%s\n",
		len(diags), len(Active(diags)), breakdown, elapsed.Milliseconds(), timing)
	return err
}
