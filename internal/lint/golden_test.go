package lint

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/fixture.golden")

// fixture memoizes the loaded testdata/src module. Sharing one Module
// across tests is safe: suppression use marks live in each Run's own
// per-file state, and the module's interprocedural index and pureplan
// findings are themselves computed once behind sync.Once.
var fixture struct {
	once sync.Once
	mod  *Module
	err  error
}

// loadFixture loads the miniature module under testdata/src once per
// test binary and returns the shared, read-only Module.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	fixture.once.Do(func() {
		fixture.mod, fixture.err = Load(filepath.Join("testdata", "src"))
	})
	if fixture.err != nil {
		t.Fatalf("Load(testdata/src): %v", fixture.err)
	}
	return fixture.mod
}

// TestFixtureGolden locks the full diagnostic stream — positives,
// suppressed sites, and directive errors — for the fixture module.
// Regenerate deliberately with:
//
//	go test ./internal/lint -run TestFixtureGolden -update
func TestFixtureGolden(t *testing.T) {
	diags := Run(loadFixture(t), All())
	var sb strings.Builder
	if err := WriteText(&sb, diags); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "fixture.golden")
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
		t.Errorf("fixture diagnostics drifted from golden.\n--- want (%s)\n%s--- got\n%s", path, want, got)
	}
}

// TestFixtureCoverage asserts the acceptance-level invariant directly:
// every analyzer has at least one active positive and at least one
// suppressed case in the fixture, and the directive pseudo-analyzer
// reports every malformed-directive shape.
func TestFixtureCoverage(t *testing.T) {
	diags := Run(loadFixture(t), All())
	active := map[string]int{}
	suppressed := map[string]int{}
	for _, d := range diags {
		if d.Suppressed {
			suppressed[d.Analyzer]++
		} else {
			active[d.Analyzer]++
		}
	}
	for _, a := range All() {
		if active[a.Name] == 0 {
			t.Errorf("analyzer %s: no active positive case in the fixture", a.Name)
		}
		if suppressed[a.Name] == 0 {
			t.Errorf("analyzer %s: no suppressed case in the fixture", a.Name)
		}
	}
	if active[DirectiveAnalyzer] < 5 {
		t.Errorf("directive errors: got %d, want all 5 malformed shapes (missing reason, bad verb, bad name, unknown analyzer, block comment)", active[DirectiveAnalyzer])
	}
	if suppressed[DirectiveAnalyzer] != 0 {
		t.Error("directive errors must not be suppressible")
	}
}

// TestFixtureJSON checks the machine-readable report: schema tag, module
// path, per-analyzer counts, elapsed passthrough, and agreement with
// Active().
func TestFixtureJSON(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod, All())
	var sb strings.Builder
	if err := WriteJSON(&sb, mod.Path, diags, 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema      string         `json:"schema"`
		Module      string         `json:"module"`
		Diagnostics []Diagnostic   `json:"diagnostics"`
		Active      int            `json:"active"`
		Counts      map[string]int `json:"counts"`
		ElapsedMS   float64        `json:"elapsed_ms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != JSONSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, JSONSchema)
	}
	if rep.Module != "uavdc" {
		t.Errorf("module = %q", rep.Module)
	}
	if len(rep.Diagnostics) != len(diags) {
		t.Errorf("report has %d diagnostics, run produced %d", len(rep.Diagnostics), len(diags))
	}
	if rep.Active != len(Active(diags)) {
		t.Errorf("active = %d, want %d", rep.Active, len(Active(diags)))
	}
	if rep.ElapsedMS != 1.5 {
		t.Errorf("elapsed_ms = %v, want 1.5", rep.ElapsedMS)
	}
	total := 0
	for _, a := range All() {
		if rep.Counts[a.Name] == 0 {
			t.Errorf("counts missing analyzer %s (fixture has cases for all)", a.Name)
		}
	}
	for _, n := range rep.Counts {
		total += n
	}
	if total != len(diags) {
		t.Errorf("counts sum to %d, want %d", total, len(diags))
	}
}

// TestRealModuleIsClean runs the suite over the enclosing repository —
// the same check `make ci` enforces — so a violation introduced anywhere
// in uavdc fails this package's tests too.
func TestRealModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load(repo root): %v", err)
	}
	for _, d := range Active(Run(mod, All())) {
		t.Errorf("%s", d.String())
	}
}

// Run executes the analyzers over every package of the module and
// returns all diagnostics — suppressed ones included, marked — sorted by
// file, line, column, analyzer. Malformed suppression directives are
// reported under DirectiveAnalyzer.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(mod, analyzers)
	return diags
}
