package experiments

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestMetricsCollectedPerPoint(t *testing.T) {
	cfg := Tiny()
	cfg.Metrics = true
	tab, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.HasMetrics() {
		t.Fatal("Metrics=true sweep produced no counters")
	}
	alg := tab.SeriesByName("algorithm1")
	bench := tab.SeriesByName("benchmark")
	if alg == nil || bench == nil {
		t.Fatal("missing series")
	}
	for _, p := range alg.Points {
		if p.Counters["orienteering.exact_runs"]+p.Counters["orienteering.greedy_runs"] == 0 {
			t.Errorf("algorithm1 x=%g: no orienteering solver attempts recorded: %v", p.X, p.Counters)
		}
	}
	for _, p := range bench.Points {
		if p.Counters["tsp.christofides_runs"] == 0 {
			t.Errorf("benchmark x=%g: no christofides runs recorded: %v", p.X, p.Counters)
		}
		if p.Counters["matching.blossom_runs"]+p.Counters["matching.greedy_runs"] == 0 {
			t.Errorf("benchmark x=%g: no matchings recorded: %v", p.X, p.Counters)
		}
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	tab, err := Fig3(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.HasMetrics() {
		t.Error("counters recorded without Config.Metrics")
	}
	var sb strings.Builder
	if err := tab.RenderMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("RenderMetrics on uninstrumented table rendered %q", sb.String())
	}
}

func TestRenderMetricsPanel(t *testing.T) {
	cfg := Tiny()
	cfg.Metrics = true
	tab, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.RenderMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fig5(c): instrumentation counters",
		"series algorithm2",
		"series algorithm3-k2",
		"series benchmark",
		"core.candidate_evals",
		"core.accepted_stops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics panel missing %q:\n%s", want, out)
		}
	}
}

func TestRunBenchTiny(t *testing.T) {
	b, err := runBench("tiny", Tiny(), []string{"fig3", "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != BenchSchema {
		t.Errorf("schema = %q", b.Schema)
	}
	if len(b.Figures) != 2 {
		t.Fatalf("figures = %d, want 2", len(b.Figures))
	}
	for _, fig := range b.Figures {
		if fig.PlanCalls == 0 {
			t.Errorf("%s: no plan calls", fig.Figure)
		}
		if len(fig.Counters) == 0 {
			t.Errorf("%s: no counters", fig.Figure)
		}
		if len(fig.VolumeMB) == 0 {
			t.Errorf("%s: no volumes", fig.Figure)
		}
		for _, series := range slices.Sorted(maps.Keys(fig.VolumeMB)) {
			if v := fig.VolumeMB[series]; v <= 0 {
				t.Errorf("%s: series %s collected %v MB", fig.Figure, series, v)
			}
		}
	}

	// Round-trip through the JSON encoding.
	var sb strings.Builder
	if err := b.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := readBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Preset != "tiny" || len(got.Figures) != 2 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if got.Figures[0].Counters["core.candidate_evals"] != b.Figures[0].Counters["core.candidate_evals"] {
		t.Error("counters lost in round-trip")
	}

	// Schema tag is enforced.
	if _, err := readBench(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Error("readBench accepted wrong schema")
	}
}

// TestBenchCountersDeterministic: the ledger is a pure function of the
// code. Two Tiny documents — figure, fault, speedup and serve panels
// included — must encode to the same bytes.
func TestBenchCountersDeterministic(t *testing.T) {
	encode := func() []byte {
		b, err := ledger("tiny", "tiny")
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Speedup) == 0 || b.Serve == nil || len(b.FaultScenarios) == 0 {
			t.Fatalf("tiny ledger is missing a panel: %+v", b)
		}
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("two tiny ledgers differ:\n%s\n---\n%s", a, b)
	}
}
