// External test package: the figure benches import internal/experiments,
// which itself imports the uavdc facade for the serving panel, so an
// in-package test file would be an import cycle.
package uavdc_test

// One benchmark per figure panel of the paper's evaluation (Section VII),
// plus ablation benches for the design choices DESIGN.md calls out. The
// figure benches run the corresponding experiment sweep at reduced scale
// (paper scale is CPU-hours; see cmd/uavexp -preset paper for the full
// run) and report the headline quantity of each panel as a custom metric:
// MB/op for the volume panels (a), planner seconds for the runtime panels
// (b) via the standard ns/op. EXPERIMENTS.md records the paper-vs-measured
// comparison.

import (
	"testing"

	"uavdc"
	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/experiments"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
)

// benchConfig is the sweep scale used by the figure benches: one instance
// per point so a single -benchtime=1x run regenerates every series.
func benchConfig() experiments.Config {
	cfg := experiments.Reduced()
	cfg.Instances = 1
	cfg.Capacities = []float64{1e4, 2e4, 3e4}
	cfg.Deltas = []float64{10, 20, 30}
	return cfg
}

func reportFigure(b *testing.B, tab *experiments.Table) {
	b.Helper()
	// Report the tight-budget (first x) volume of every series: the
	// panel's headline comparison.
	for _, s := range tab.Series {
		if len(s.Points) > 0 {
			b.ReportMetric(s.Points[0].Volume, s.Name+"_MB")
		}
	}
}

// BenchmarkFig3a regenerates Fig. 3(a): collected volume vs energy
// capacity, Algorithm 1 vs benchmark (no-overlap problem).
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, tab)
	}
}

// BenchmarkFig3b regenerates Fig. 3(b): planner runtime vs energy capacity
// for the same pair; the runtime series is the measurement itself.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range tab.Series {
			b.ReportMetric(s.Points[len(s.Points)-1].Runtime*1e3, s.Name+"_ms")
		}
	}
}

// BenchmarkFig4a regenerates Fig. 4(a): collected volume vs δ for
// Algorithm 2, Algorithm 3 (K = 2, 4) and the benchmark.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, tab)
	}
}

// BenchmarkFig4b regenerates Fig. 4(b): runtime vs δ.
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range tab.Series {
			b.ReportMetric(s.Points[0].Runtime*1e3, s.Name+"_ms")
		}
	}
}

// BenchmarkFig5a regenerates Fig. 5(a): collected volume vs energy
// capacity at fixed δ for Algorithm 2, Algorithm 3 (K = 2, 4), benchmark.
func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, tab)
	}
}

// BenchmarkFig5b regenerates Fig. 5(b): runtime vs energy capacity.
func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range tab.Series {
			b.ReportMetric(s.Points[len(s.Points)-1].Runtime*1e3, s.Name+"_ms")
		}
	}
}

// --- per-planner benches: one planning call at reduced scale ---

func benchInstance(b *testing.B, k int) *core.Instance {
	b.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = 60
	p.Side = 350
	net, err := sensornet.Generate(p, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	return &core.Instance{Net: net, Model: energy.Default().WithCapacity(2e4), Delta: 15, K: k}
}

func benchPlanner(b *testing.B, pl core.Planner, k int) {
	b.Helper()
	in := benchInstance(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := pl.Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(plan.Collected(), "MB")
		}
	}
}

func BenchmarkAlgorithm1(b *testing.B) { benchPlanner(b, &core.Algorithm1{}, 1) }
func BenchmarkAlgorithm2(b *testing.B) { benchPlanner(b, &core.Algorithm2{}, 1) }

func BenchmarkAlgorithm3K2(b *testing.B) {
	benchPlanner(b, &core.Algorithm3{}, 2)
}
func BenchmarkAlgorithm3K4(b *testing.B) {
	benchPlanner(b, &core.Algorithm3{}, 4)
}
func BenchmarkBaseline(b *testing.B) { benchPlanner(b, &core.BenchmarkPlanner{}, 1) }

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationExactRatioTSP prices Algorithm 2 candidates with the
// literal per-candidate Christofides recomputation of Eq. 13, against the
// default cheapest-insertion pricing benched by BenchmarkAlgorithm2.
func BenchmarkAblationExactRatioTSP(b *testing.B) {
	in := benchInstance(b, 1)
	in.Delta = 40 // the literal pricing is O(M·|S|³) per step; shrink M
	pl := &core.Algorithm2{ExactRatioTSP: true}
	fast := &core.Algorithm2{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, err := pl.Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			quick, err := fast.Plan(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(exact.Collected(), "exact_MB")
			b.ReportMetric(quick.Collected(), "insertion_MB")
		}
	}
}

// BenchmarkAblationDecomposition separates the framework's win into its
// two ingredients: simultaneous coverage collection (benchmark-coverage vs
// benchmark) and free hovering placement (algorithm2 vs benchmark-coverage).
func BenchmarkAblationDecomposition(b *testing.B) {
	in := benchInstance(b, 1)
	in.Model = in.Model.WithCapacity(1.2e4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p3, err := (&core.Algorithm2{}).Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p1, err := (&core.BenchmarkPlanner{}).Plan(in)
			if err != nil {
				b.Fatal(err)
			}
			p2, err := (&core.BenchmarkCoverage{}).Plan(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(p1.Collected(), "plain_MB")
			b.ReportMetric(p2.Collected(), "coverage_MB")
			b.ReportMetric(p3.Collected(), "placed_MB")
		}
	}
}

// BenchmarkAblationLNS measures the destroy-and-repair improvement layer
// over plain Algorithm 3: extra volume bought per extra planning time.
func BenchmarkAblationLNS(b *testing.B) {
	in := benchInstance(b, 2)
	in.Model = in.Model.WithCapacity(1e4) // tight: room to improve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lns, err := (&core.LNSPlanner{Rounds: 15, Seed: 1}).Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base, err := (&core.Algorithm3{}).Plan(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(base.Collected(), "greedy_MB")
			b.ReportMetric(lns.Collected(), "lns_MB")
		}
	}
}

// BenchmarkAblationRefine measures the continuous stop-relocation polish:
// flight-distance saved vs its planning-time cost, against the raw grid
// plan (DESIGN.md: the paper fixes stops to δ-grid centres).
func BenchmarkAblationRefine(b *testing.B) {
	in := benchInstance(b, 2)
	in.Delta = 40 // coarse grid: relocation has room to help
	plan, err := (&core.Algorithm2{}).Plan(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refined := core.RefinePlan(in, plan)
		if i == 0 {
			b.ReportMetric(plan.FlightDistance(), "grid_m")
			b.ReportMetric(refined.FlightDistance(), "refined_m")
		}
	}
}

// BenchmarkPublicAPI measures the end-to-end facade path (plan + validate
// + simulate) a downstream caller pays.
func BenchmarkPublicAPI(b *testing.B) {
	sc := uavdc.RandomScenario(60, 350, 5)
	uav := uavdc.DefaultUAV()
	uav.CapacityJ = 2e4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uavdc.Plan(sc, uav, uavdc.Options{DeltaM: 15, K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
