package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"uavdc/internal/lint"
)

const fixture = "../../internal/lint/testdata/src"

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// fixtureMod memoizes the fixture module for the test binary, as
// internal/lint's loadFixture does: it is type-checked once, not once per
// test. Sharing a Module across runs is safe; each run keeps its own
// suppression state.
var fixtureMod struct {
	once sync.Once
	mod  *lint.Module
	err  error
}

// loadOnce is run's loader in tests: lint.Load, memoized for the fixture.
func loadOnce(dir string) (*lint.Module, error) {
	if dir != fixture {
		return lint.Load(dir)
	}
	fixtureMod.once.Do(func() { fixtureMod.mod, fixtureMod.err = lint.Load(dir) })
	return fixtureMod.mod, fixtureMod.err
}

// checkGolden compares got against testdata/<name>.golden, rewriting it
// under -update. Wall-time is the one nondeterministic field in uavlint
// output, so callers normalise it first.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden.\n--- want (%s)\n%s--- got\n%s", path, want, got)
	}
}

var (
	elapsedJSON    = regexp.MustCompile(`"elapsed_ms": [0-9.eE+-]+`)
	elapsedSummary = regexp.MustCompile(`in [0-9]+ms`)
	// msTimes normalises every wall-time figure in the summary line —
	// the total and the per-analyzer breakdown.
	msTimes = regexp.MustCompile(`\b[0-9]+ms\b`)
)

func TestRunFixtureText(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", fixture}, &stdout, &stderr, loadOnce)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (fixture has active diagnostics); stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"floateq", "nodeterminism", "obsnames", "errdrop", "unitsafety",
		"locksafety", "golifecycle", "wirefmt", "pureplan", "deadexport", "directive"} {
		if !strings.Contains(out, want+": ") {
			t.Errorf("text output missing %s diagnostics:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(suppressed:") {
		t.Error("suppressed diagnostics shown without -all")
	}
	if !strings.Contains(stderr.String(), "non-suppressed diagnostic") {
		t.Errorf("stderr summary missing: %q", stderr.String())
	}
}

func TestRunFixtureAll(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-all"}, &stdout, &stderr, loadOnce); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "(suppressed:") {
		t.Error("-all did not include suppressed diagnostics")
	}
}

func TestRunFixtureJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-json"}, &stdout, &stderr, loadOnce); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var rep struct {
		Schema    string         `json:"schema"`
		Active    int            `json:"active"`
		Counts    map[string]int `json:"counts"`
		ElapsedMS float64        `json:"elapsed_ms"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if rep.Schema != "uavdc-lint/2" || rep.Active == 0 {
		t.Errorf("report = %+v", rep)
	}
	for _, name := range []string{"nodeterminism", "floateq", "obsnames", "errdrop", "unitsafety",
		"locksafety", "golifecycle", "wirefmt", "pureplan", "deadexport", "directive"} {
		if rep.Counts[name] == 0 {
			t.Errorf("counts missing %s: %v", name, rep.Counts)
		}
	}
	if rep.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", rep.ElapsedMS)
	}
	checkGolden(t, "json", elapsedJSON.ReplaceAllString(stdout.String(), `"elapsed_ms": 0`))
}

func TestRunFixtureSummary(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-summary"}, &stdout, &stderr, loadOnce); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "uavlint: ") || !elapsedSummary.MatchString(last) {
		t.Fatalf("summary line malformed: %q", last)
	}
	if !strings.Contains(last, "(analyzers:") {
		t.Fatalf("summary line missing the per-analyzer timing clause: %q", last)
	}
	checkGolden(t, "summary", msTimes.ReplaceAllString(last, "0ms")+"\n")
}

func TestRunFixturePathFilter(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "internal/core/..."}, &stdout, &stderr, loadOnce); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "internal/app/") {
		t.Errorf("path filter leaked internal/app diagnostics:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "internal/core/") {
		t.Errorf("path filter dropped internal/core diagnostics:\n%s", stdout.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr, loadOnce); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list not sorted by name: %v", names)
	}
	for _, name := range []string{"nodeterminism", "floateq", "obsnames", "errdrop", "unitsafety",
		"locksafety", "golifecycle", "wirefmt", "pureplan", "deadexport"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
	checkGolden(t, "list", stdout.String())
}

// TestRunAnalyzersSubset: -analyzers restricts the run to the named
// analyzers. Directives for analyzers outside the subset must be
// neither "unknown analyzer" errors nor stale reports — a subset run
// cannot judge them.
func TestRunAnalyzersSubset(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-analyzers", "errdrop,floateq"}, &stdout, &stderr, loadOnce); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, name := range []string{"nodeterminism", "obsnames", "unitsafety", "locksafety",
		"golifecycle", "wirefmt", "pureplan", "deadexport"} {
		if strings.Contains(out, " "+name+": ") {
			t.Errorf("-analyzers errdrop,floateq leaked %s diagnostics:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "errdrop: ") || !strings.Contains(out, "floateq: ") {
		t.Errorf("subset output missing the requested analyzers:\n%s", out)
	}
	for _, name := range []string{"nodeterminism", "obsnames", "pureplan", "wirefmt"} {
		if strings.Contains(out, "unknown analyzer \""+name+"\"") {
			t.Errorf("directives for non-run analyzer %s misreported as unknown (the full registry defines them):\n%s", name, out)
		}
	}
	// The fixture's stale floateq directive is judged (floateq ran); the
	// live nodeterminism/pureplan directives must not be called stale.
	if !strings.Contains(out, "uavdc:allow floateq suppressed nothing") {
		t.Errorf("stale floateq directive not reported in a run that includes floateq:\n%s", out)
	}
	if strings.Contains(out, "uavdc:allow nodeterminism suppressed nothing") ||
		strings.Contains(out, "uavdc:allow pureplan suppressed nothing") {
		t.Errorf("directives for analyzers outside the subset judged stale:\n%s", out)
	}
}

// TestRunAnalyzersUnknown: an unknown name in -analyzers is a usage
// error, exit 2, before any loading happens.
func TestRunAnalyzersUnknown(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-analyzers", "errdrop,nosuchanalyzer"}, &stdout, &stderr, loadOnce); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("stderr = %q, want unknown-analyzer usage error", stderr.String())
	}
}

// TestRunAnalyzersEmpty: an all-whitespace subset is a usage error.
func TestRunAnalyzersEmpty(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixture, "-analyzers", " , "}, &stdout, &stderr, loadOnce); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "empty subset") {
		t.Errorf("stderr = %q, want empty-subset usage error", stderr.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr, loadOnce); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunLoadErrorExits2: a module the engine cannot load (here, one
// importing a package that does not exist, so `go list` fails) is a
// load error, exit 2, not a lint finding.
func TestRunLoadErrorExits2(t *testing.T) {
	root := t.TempDir()
	for _, f := range []struct{ name, src string }{
		{"go.mod", "module tmp\n\ngo 1.23\n"},
		{"a.go", "package tmp\n\nimport _ \"nosuch/pkg\"\n"},
	} {
		if err := os.WriteFile(filepath.Join(root, f.name), []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", root}, &stdout, &stderr, loadOnce); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nosuch/pkg") {
		t.Errorf("stderr does not name the missing package: %s", stderr.String())
	}
}

func TestRunBadDir(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", filepath.Join(fixture, "no-such-dir")}, &stdout, &stderr, loadOnce); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("no error message on stderr")
	}
}
