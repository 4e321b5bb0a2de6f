package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"uavdc/internal/core"
	"uavdc/internal/faults"
	"uavdc/internal/simulate"
	"uavdc/internal/units"
	"uavdc/internal/wire"
)

// BenchSchema identifies the ledger format version. Bump it when a
// field changes meaning or goes away.
const BenchSchema = wire.Bench

// The ledger's fixed content: the figure drivers of the main panel and
// of the speedup panel, and the serve panel's load shape. Under Full(),
// fig4 and fig5 plan identical instances (δ = 5 m, E = 1.5×10⁵ J), so
// the speedup panel runs fig3 and fig4 only.
var (
	ledgerFigures  = []string{"fig3", "fig4", "fig5"}
	speedupFigures = []string{"fig3", "fig4"}
)

const (
	serveRequests = 256
	serveDistinct = 8
	serveClients  = 8
)

// BenchFigure is one figure driver's deterministic panel in the ledger.
type BenchFigure struct {
	// Figure is the driver id, e.g. "fig3".
	Figure string `json:"figure"`
	// PlanCalls is the number of planner invocations.
	PlanCalls int64 `json:"plan_calls"`
	// VolumeMB maps each series to its collected volume summed over the
	// sweep's points (mean over instances at each point). A perf PR that
	// changes any of these numbers changed planner behaviour, not just
	// speed.
	VolumeMB map[string]float64 `json:"volume_mb"`
	// Counters is the obs counter totals summed over every series and
	// point of the figure. Deterministic for a fixed configuration.
	Counters map[string]int64 `json:"counters"`
}

// BenchFaultScenario is one planner's adaptive-execution column: every
// preset network is planned fault-free, then flown by simulate.AdaptiveRun
// under the recorded fault schedule, and the row reports how much of the
// promised volume survived. All fields are deterministic for a fixed
// preset.
type BenchFaultScenario struct {
	// Planner is the planner id ("algorithm3", ...).
	Planner string `json:"planner"`
	// FaultSpec is the canonical schedule the missions flew under.
	FaultSpec string `json:"fault_spec"`
	// PlannedMB / RetainedMB sum the fault-free promise and the adaptive
	// execution's actual collection over the preset's networks.
	PlannedMB  float64 `json:"planned_mb"`
	RetainedMB float64 `json:"retained_mb"`
	// RetainedFrac is RetainedMB/PlannedMB — the volume retained under
	// faults.
	RetainedFrac float64 `json:"retained_frac"`
	// Replans, FaultsApplied, StopsSkipped sum the executor's bookkeeping
	// over the networks.
	Replans       int64 `json:"replans"`
	FaultsApplied int64 `json:"faults_applied"`
	StopsSkipped  int64 `json:"stops_skipped"`
}

// BenchSpeedupRow is one figure's fast-vs-reference ledger in the
// speedup panel: the same driver run twice, once on the retained
// reference scan path and once on the spatial-index fast path, with the
// deterministic panels cross-checked for bit-equality.
type BenchSpeedupRow struct {
	// Figure is the driver id, e.g. "fig4".
	Figure string `json:"figure"`
	// Preset names the configuration the pair ran under — the speedup
	// panel uses a larger preset ("full") than the document's main
	// figure panels.
	Preset string `json:"preset"`
	// ReferenceEvals / FastEvals are the core.candidate_evals totals of
	// the two runs; SkippedEvals and ReusedEvals are the fast run's
	// core.scan_skipped_drained and core.scan_reused_offers totals. The
	// fast-path accounting oracle is
	// FastEvals + SkippedEvals + ReusedEvals == ReferenceEvals.
	ReferenceEvals int64 `json:"reference_evals"`
	FastEvals      int64 `json:"fast_evals"`
	SkippedEvals   int64 `json:"skipped_evals"`
	ReusedEvals    int64 `json:"reused_evals"`
	// BitIdentical reports whether the two runs' deterministic panels
	// matched exactly: per-series volumes, plan calls, and every counter
	// other than the scan work ledger (candidate_evals,
	// residual_recomputes, scan_skipped_drained, scan_reused_offers).
	BitIdentical bool `json:"bit_identical"`
}

// speedupWorkCounters are the scan work ledger: the only counters allowed
// to differ between a reference and a fast run of the same configuration.
var speedupWorkCounters = map[string]bool{
	core.CounterCandidateEvals:     true,
	core.CounterResidualRecomputes: true,
	core.CounterScanSkippedDrained: true,
	core.CounterScanReusedOffers:   true,
}

// Bench is the deterministic ledger BENCH_LEDGER.json holds: every
// field is a pure function of the code, so `make benchparity` diffs a
// fresh run against the committed file byte for byte.
type Bench struct {
	Schema         string               `json:"schema"`
	Preset         string               `json:"preset"`
	Instances      int                  `json:"instances"`
	Seed           uint64               `json:"seed"`
	GOOS           string               `json:"goos"`
	GOARCH         string               `json:"goarch"`
	Figures        []BenchFigure        `json:"figures"`
	FaultScenarios []BenchFaultScenario `json:"fault_scenarios"`
	Speedup        []BenchSpeedupRow    `json:"speedup"`
	Serve          *BenchServe          `json:"serve"`
}

// Ledger computes the document BENCH_LEDGER.json holds: the reduced
// preset's fig3–5 panels, the fast-vs-reference speedup panel at the
// paper-scale full preset, the serve panel at the reduced preset, and
// the adaptive-execution panel under the default fault schedule.
func Ledger() (*Bench, error) {
	return ledger("reduced", "full")
}

// ledger assembles a ledger document from the named main and speedup
// presets; the serve and fault panels run at the main preset.
func ledger(preset, speedupPreset string) (*Bench, error) {
	cfg, err := Preset(preset)
	if err != nil {
		return nil, err
	}
	scfg, err := Preset(speedupPreset)
	if err != nil {
		return nil, err
	}
	b, err := runBench(preset, cfg, ledgerFigures)
	if err != nil {
		return nil, err
	}
	if b.FaultScenarios, err = benchFaultScenarios(cfg); err != nil {
		return nil, err
	}
	if b.Speedup, err = benchSpeedup(speedupPreset, scfg, speedupFigures); err != nil {
		return nil, err
	}
	if b.Serve, err = runBenchServe(preset, cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// runBench executes the named figure drivers with instrumentation on and
// returns the figure panels: plan calls, counter totals and collected
// volumes per figure. preset is recorded verbatim for provenance; cfg
// should be the matching configuration.
func runBench(preset string, cfg Config, figures []string) (*Bench, error) {
	b := &Bench{
		Schema:    BenchSchema,
		Preset:    preset,
		Instances: cfg.Instances,
		Seed:      cfg.Seed,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, name := range figures {
		fig, err := benchFigure(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s: %w", name, err)
		}
		b.Figures = append(b.Figures, fig)
	}
	return b, nil
}

// benchFigure runs one figure driver with metrics on and sums its
// points into a panel.
func benchFigure(name string, cfg Config) (BenchFigure, error) {
	cfg.Metrics = true
	tab, err := Run(name, cfg)
	if err != nil {
		return BenchFigure{}, err
	}
	fig := BenchFigure{
		Figure:   name,
		VolumeMB: map[string]float64{},
		Counters: map[string]int64{},
	}
	for _, s := range tab.Series {
		for _, p := range s.Points {
			fig.PlanCalls += int64(p.N)
			fig.VolumeMB[s.Name] += p.Volume
			for cname, n := range p.Counters {
				fig.Counters[cname] += n
			}
		}
	}
	return fig, nil
}

// benchSpeedup runs each named figure driver twice under the given
// configuration — once with Config.Reference set (the retained full-scan
// path) and once on the default fast path — and returns one row per
// figure: the candidate-evaluation ledger and whether the deterministic
// panels matched bit-for-bit. A row with BitIdentical == false means the
// fast path changed behaviour, and the accompanying differential tests
// should be failing too.
func benchSpeedup(preset string, cfg Config, figures []string) ([]BenchSpeedupRow, error) {
	rows := make([]BenchSpeedupRow, 0, len(figures))
	for _, name := range figures {
		ref := cfg
		ref.Reference = true
		refFig, err := benchFigure(name, ref)
		if err != nil {
			return nil, fmt.Errorf("experiments: speedup %s (reference): %w", name, err)
		}
		fastFig, err := benchFigure(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: speedup %s (fast): %w", name, err)
		}
		rows = append(rows, BenchSpeedupRow{
			Figure:         name,
			Preset:         preset,
			ReferenceEvals: refFig.Counters[core.CounterCandidateEvals],
			FastEvals:      fastFig.Counters[core.CounterCandidateEvals],
			SkippedEvals:   fastFig.Counters[core.CounterScanSkippedDrained],
			ReusedEvals:    fastFig.Counters[core.CounterScanReusedOffers],
			BitIdentical:   speedupPanelsEqual(refFig, fastFig),
		})
	}
	return rows, nil
}

// speedupPanelsEqual compares the deterministic panels of a reference and
// a fast run: volumes and plan calls exactly, counters exactly except the
// scan work ledger.
func speedupPanelsEqual(ref, fast BenchFigure) bool {
	if ref.PlanCalls != fast.PlanCalls || len(ref.VolumeMB) != len(fast.VolumeMB) {
		return false
	}
	for series, want := range ref.VolumeMB {
		got, ok := fast.VolumeMB[series]
		if !ok || got != want { // exact compare: bit-identity is the contract being verified
			return false
		}
	}
	names := map[string]bool{}
	for cname := range ref.Counters {
		names[cname] = true
	}
	for cname := range fast.Counters {
		names[cname] = true
	}
	for cname := range names {
		if speedupWorkCounters[cname] {
			continue
		}
		if ref.Counters[cname] != fast.Counters[cname] {
			return false
		}
	}
	return true
}

// benchFaultScenarios computes the adaptive-execution panel: each planner
// plans every preset network fault-free at the preset's nominal capacity,
// the adaptive executor flies each plan under the default fault schedule,
// and the per-planner row aggregates promised vs retained volume.
func benchFaultScenarios(cfg Config) ([]BenchFaultScenario, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	sched, err := faults.Parse(faults.DefaultSpec)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench fault spec: %w", err)
	}
	nets, err := cfg.networks()
	if err != nil {
		return nil, err
	}
	k := 2
	if len(cfg.Ks) > 0 {
		k = cfg.Ks[0]
	}
	planners := []core.Planner{
		&core.Algorithm1{},
		&core.Algorithm2{},
		&core.Algorithm3{},
		&core.BenchmarkPlanner{},
	}
	rows := make([]BenchFaultScenario, 0, len(planners))
	for _, pl := range planners {
		row := BenchFaultScenario{Planner: pl.Name(), FaultSpec: sched.String()}
		for ni, net := range nets {
			in := &core.Instance{Net: net, Model: cfg.Model, Delta: units.Meters(cfg.Delta), K: k}
			plan, err := pl.Plan(in)
			if err != nil {
				return nil, fmt.Errorf("experiments: bench faults %s net %d: %w", pl.Name(), ni, err)
			}
			res := simulate.AdaptiveRun(in, plan, simulate.AdaptiveOptions{Faults: sched})
			row.PlannedMB += plan.Collected()
			row.RetainedMB += res.Collected
			row.Replans += int64(res.Replans)
			row.FaultsApplied += int64(res.FaultsApplied)
			row.StopsSkipped += int64(res.StopsSkipped)
		}
		if row.PlannedMB > 0 {
			row.RetainedFrac = row.RetainedMB / row.PlannedMB
		} else {
			row.RetainedFrac = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteJSON writes the ledger as indented JSON with a trailing newline.
// Map keys are emitted sorted (encoding/json), so the encoding is a pure
// function of the document.
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
