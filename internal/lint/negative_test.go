package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModuleTree copies the real module's go.mod and non-test Go files
// — the root package and the internal, cmd and examples trees — into a
// temp dir so tests can inject violations without touching the repo.
// The commands and examples ride along because deadexport counts their
// references; test files stay behind, since no analyzer reports on the
// real module's tests and type-checking them would only cost time.
func copyModuleTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	src := filepath.Join("..", "..")
	copyFile := func(rel string) {
		raw, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	for _, dir := range []string{".", "internal", "cmd", "examples"} {
		base := filepath.Join(src, dir)
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if (dir == "." && path != base) || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				rel, err := filepath.Rel(src, path)
				if err != nil {
					return err
				}
				copyFile(rel)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("copy %s: %v", dir, err)
		}
	}
	return root
}

// TestInjectedCrossUnitCastFailsLint verifies the unitsafety gate end to
// end on the real codebase, not just the fixture: a copy of the module's
// internal tree with a units.Joules(m.Speed) cross-unit cast injected
// into internal/core must come back with exactly that active diagnostic
// — the condition under which `make lint` (and so `make ci`) exits
// non-zero. Copying into t.TempDir keeps the poison out of the repo.
func TestInjectedCrossUnitCastFailsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	poison := `package core

import (
	"uavdc/internal/energy"
	"uavdc/internal/units"
)

// injectedBudget deliberately crosses speed into energy without a
// helper; unitsafety must reject it.
func injectedBudget(m energy.Model) units.Joules {
	return units.Joules(m.Speed)
}
`
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "zz_injected.go"), []byte(poison), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 1 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the injected one", len(active))
	}
	d := active[0]
	if d.Analyzer != "unitsafety" || d.Path != "internal/core/zz_injected.go" ||
		!strings.Contains(d.Message, "cross-unit conversion units.MetersPerSecond → units.Joules") {
		t.Errorf("unexpected diagnostic: %s", d.String())
	}
}

// TestInjectedImpureEffectFailsPurePlan verifies the purity gate end to
// end on the real codebase: a copy of the module with a package-level
// counter bump injected into scanIndex.drained — deep inside the
// Algorithm 2 scan loop — must come back with exactly one active
// pureplan diagnostic whose chain walks from a planner entry point down
// to the injected write. This is the failure `make ci`'s lint step
// exists to catch: silent global state accumulating under the plan
// cache.
func TestInjectedImpureEffectFailsPurePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	fastscan := filepath.Join(root, "internal", "core", "fastscan.go")
	raw, err := os.ReadFile(fastscan)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "func (ix *scanIndex) drained(v int) {"
	if !strings.Contains(string(raw), anchor) {
		t.Fatalf("injection anchor %q not found in fastscan.go", anchor)
	}
	poisoned := strings.Replace(string(raw), anchor, anchor+"\n\tinjectedTally++", 1)
	if err := os.WriteFile(fastscan, []byte(poisoned), 0o644); err != nil {
		t.Fatal(err)
	}
	decl := "package core\n\n// injectedTally is the deliberately impure accumulator.\nvar injectedTally int\n"
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "zz_injected.go"), []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 1 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the injected one", len(active))
	}
	d := active[0]
	if d.Analyzer != "pureplan" || d.Path != "internal/core/fastscan.go" {
		t.Fatalf("unexpected diagnostic: %s", d.String())
	}
	for _, want := range []string{
		"reachable from entry point",
		"core.scanIndex.drained → write to package-level var core.injectedTally",
		"write to package-level var core.injectedTally reachable",
	} {
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, d.String())
		}
	}
}

// TestInjectedConcurrencyViolationsFailLint does the same for the three
// concurrency-contract analyzers in one pass: a copy of the module with
// one violation per analyzer injected — a leaked lock, a detached
// goroutine, and a stale wire tag — must come back with exactly those
// three active diagnostics and nothing else.
func TestInjectedConcurrencyViolationsFailLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	poisons := []struct{ name, src string }{
		{"zz_locksafety.go", `package core

import "sync"

type injectedGuard struct {
	mu sync.Mutex
	n  int
}

// injectedLeak deliberately leaks the lock on the early return.
func (g *injectedGuard) injectedLeak(flag bool) int {
	g.mu.Lock()
	if flag {
		return 0
	}
	g.mu.Unlock()
	return g.n
}
`},
		{"zz_golifecycle.go", `package core

// injectedSpawn deliberately detaches a goroutine.
func injectedSpawn(out *int) {
	go func() {
		*out = 1
	}()
}
`},
		{"zz_wirefmt.go", `package core

// injectedSchema deliberately pins a stale wire version.
const injectedSchema = "uavdc-oplog/2"
`},
	}
	for _, p := range poisons {
		if err := os.WriteFile(filepath.Join(root, "internal", "core", p.name), []byte(p.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 3 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the three injected ones", len(active))
	}
	want := []struct{ analyzer, path, msg string }{
		{"locksafety", "internal/core/zz_locksafety.go", "locked here but not unlocked on every return path"},
		{"golifecycle", "internal/core/zz_golifecycle.go", "not tied to a shutdown path"},
		{"wirefmt", "internal/core/zz_wirefmt.go", `pins version 2 but the registry's current version is 1`},
	}
	seen := map[string]bool{}
	for _, d := range active {
		seen[d.Analyzer] = true
	}
	for _, w := range want {
		if !seen[w.analyzer] {
			t.Errorf("injected %s violation did not fire", w.analyzer)
			continue
		}
		for _, d := range active {
			if d.Analyzer != w.analyzer {
				continue
			}
			if d.Path != w.path || !strings.Contains(d.Message, w.msg) {
				t.Errorf("%s: unexpected diagnostic: %s", w.analyzer, d.String())
			}
		}
	}
}
