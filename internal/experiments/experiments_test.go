package experiments

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestConfigPresetsValidate(t *testing.T) {
	presets := map[string]Config{
		"paper": Paper(), "papertight": PaperTight(), "reduced": Reduced(), "tiny": Tiny(),
	}
	for _, name := range slices.Sorted(maps.Keys(presets)) {
		cfg := presets[name]
		if err := cfg.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := map[string]func(*Config){
		"no instances":  func(c *Config) { c.Instances = 0 },
		"bad delta":     func(c *Config) { c.Delta = 0 },
		"nothing swept": func(c *Config) { c.Capacities, c.Deltas = nil, nil },
		"neg capacity":  func(c *Config) { c.Capacities = []float64{-1} },
		"bad sweep δ":   func(c *Config) { c.Deltas = []float64{0} },
		"bad K":         func(c *Config) { c.Ks = []int{0} },
		"bad gen":       func(c *Config) { c.Gen.Side = 0 },
		"bad model":     func(c *Config) { c.Model.Speed = 0 },
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		cfg := Tiny()
		cases[name](&cfg)
		if err := cfg.Check(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNetworksArePairedAcrossCalls(t *testing.T) {
	cfg := Tiny()
	a, err := cfg.networks()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.networks()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Sensors[0] != b[i].Sensors[0] {
			t.Fatal("instance pool not deterministic")
		}
	}
	if a[0].Sensors[0] == a[1].Sensors[0] {
		t.Error("distinct instances identical")
	}
}

func TestFig3Tiny(t *testing.T) {
	tab, err := Fig3(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Figure != "fig3" || len(tab.Series) != 2 {
		t.Fatalf("table shape: %s, %d series", tab.Figure, len(tab.Series))
	}
	alg1 := tab.SeriesByName("algorithm1")
	bench := tab.SeriesByName("benchmark")
	if alg1 == nil || bench == nil {
		t.Fatal("missing series")
	}
	if len(alg1.Points) != 2 {
		t.Fatalf("points: %d", len(alg1.Points))
	}
	// Shape: volumes grow (weakly) with capacity for both series.
	for _, s := range tab.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Volume < s.Points[i-1].Volume*0.95 {
				t.Errorf("%s volume dropped: %v → %v", s.Name, s.Points[i-1].Volume, s.Points[i].Volume)
			}
		}
	}
	// Shape: algorithm1 beats the benchmark at the tight budget.
	if alg1.Points[0].Volume <= bench.Points[0].Volume {
		t.Errorf("algorithm1 %v should beat benchmark %v at tight budget", alg1.Points[0].Volume, bench.Points[0].Volume)
	}
}

func TestFig4Tiny(t *testing.T) {
	tab, err := Fig4(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"algorithm2", "algorithm3-k2", "benchmark"}
	if len(tab.Series) != len(want) {
		t.Fatalf("series: %d", len(tab.Series))
	}
	for _, name := range want {
		if tab.SeriesByName(name) == nil {
			t.Fatalf("missing series %s", name)
		}
	}
	// Benchmark ignores δ: its volume must be flat across x.
	b := tab.SeriesByName("benchmark")
	for i := 1; i < len(b.Points); i++ {
		if b.Points[i].Volume != b.Points[0].Volume {
			t.Errorf("benchmark volume varies with δ: %v vs %v", b.Points[i].Volume, b.Points[0].Volume)
		}
	}
}

func TestFig5Tiny(t *testing.T) {
	tab, err := Fig5(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Figure != "fig5" {
		t.Fatal("wrong figure id")
	}
	a2 := tab.SeriesByName("algorithm2")
	if a2 == nil || len(a2.Points) != 2 {
		t.Fatal("algorithm2 series malformed")
	}
	if a2.Points[1].Volume < a2.Points[0].Volume*0.95 {
		t.Errorf("algorithm2 volume fell with more energy: %v → %v", a2.Points[0].Volume, a2.Points[1].Volume)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", Tiny()); err == nil {
		t.Error("unknown figure accepted")
	}
	tab, err := Run("fig3", Tiny())
	if err != nil || tab.Figure != "fig3" {
		t.Errorf("dispatch failed: %v", err)
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab, err := Fig3(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig3(a)", "fig3(b)", "algorithm1", "benchmark", "energy capacity"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csvB strings.Builder
	if err := tab.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvB.String()), "\n")
	// header + 2 series × 2 points
	if len(lines) != 1+4 {
		t.Errorf("csv lines = %d:\n%s", len(lines), csvB.String())
	}
	if !strings.HasPrefix(lines[0], "figure,series,x,") {
		t.Errorf("csv header = %s", lines[0])
	}
	if tab.String() == "" {
		t.Error("String() empty")
	}
}

func TestSweepRejectsBadConfig(t *testing.T) {
	cfg := Tiny()
	cfg.Instances = 0
	if _, err := Fig3(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestWriteMarkdown(t *testing.T) {
	tab, err := Fig3(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### fig3(a)", "### fig3(b)", "| algorithm1 |", "|---|", "± "} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// SeriesByName returns the named series, or nil.
func (t *Table) SeriesByName(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}
