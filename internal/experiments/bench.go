package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"uavdc/internal/core"
	"uavdc/internal/faults"
	"uavdc/internal/simulate"
	"uavdc/internal/units"
	"uavdc/internal/wire"
)

// TimerPlan is the obs timer under which runSweep records every planner
// invocation's wall time when Config.Metrics is on.
const TimerPlan = "experiments.plan"

// BenchSchema identifies the BENCH_*.json format version. Bump it when a
// field changes meaning; perf-trajectory tooling compares files only
// within one schema version.
const BenchSchema = wire.Bench

// BenchFigure is one figure driver's measurement in a bench run.
type BenchFigure struct {
	// Figure is the driver id, e.g. "fig3".
	Figure string `json:"figure"`
	// WallSeconds is the driver's total wall-clock time: planning,
	// validation, and simulation for every (series, x, instance) cell.
	WallSeconds float64 `json:"wall_seconds"`
	// PlanSeconds is the summed planner-only wall time (the obs
	// "experiments.plan" timer), i.e. WallSeconds minus generation,
	// validation, and simulation overhead.
	PlanSeconds float64 `json:"plan_seconds"`
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
// preset at any Workers setting.
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

// BenchSpeedupRow is one figure's fast-vs-reference measurement in the
// speedup panel: the same driver run twice, once on the retained
// reference scan path and once on the spatial-index fast path, with the
// deterministic panels cross-checked for bit-equality. Timing fields are
// machine noise; the evals columns and BitIdentical are deterministic.
type BenchSpeedupRow struct {
	// Figure is the driver id, e.g. "fig4".
	Figure string `json:"figure"`
	// Preset names the configuration the pair ran under — the speedup
	// panel may use a larger preset (e.g. "full") than the document's
	// main figure panels.
	Preset string `json:"preset"`
	// ReferenceSeconds / FastSeconds are the planner-only wall times
	// (summed experiments.plan timer) of the two runs.
	ReferenceSeconds float64 `json:"reference_seconds"`
	FastSeconds      float64 `json:"fast_seconds"`
	// Speedup is ReferenceSeconds / FastSeconds.
	Speedup float64 `json:"speedup"`
	// ReferenceEvals / FastEvals are the core.candidate_evals totals of
	// the two runs; SkippedEvals is the fast run's
	// core.scan_skipped_drained total. The fast-path accounting oracle is
	// FastEvals + SkippedEvals == ReferenceEvals.
	ReferenceEvals int64 `json:"reference_evals"`
	FastEvals      int64 `json:"fast_evals"`
	SkippedEvals   int64 `json:"skipped_evals"`
	// BitIdentical reports whether the two runs' deterministic panels
	// matched exactly: per-series volumes, plan calls, and every counter
	// other than the scan work ledger (candidate_evals,
	// residual_recomputes, scan_skipped_drained).
	BitIdentical bool `json:"bit_identical"`
}

// speedupWorkCounters are the scan work ledger: the only counters allowed
// to differ between a reference and a fast run of the same configuration.
var speedupWorkCounters = map[string]bool{
	core.CounterCandidateEvals:     true,
	core.CounterResidualRecomputes: true,
	core.CounterScanSkippedDrained: true,
}

// Bench is the on-disk BENCH_*.json document: the perf baseline one repo
// state leaves behind for later states to diff against.
type Bench struct {
	Schema    string        `json:"schema"`
	Preset    string        `json:"preset"`
	Instances int           `json:"instances"`
	Seed      uint64        `json:"seed"`
	Workers   int           `json:"workers"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Figures   []BenchFigure `json:"figures"`
	// FaultScenarios is the adaptive-execution panel (uavbench -faults);
	// absent in documents written before it existed, so the schema tag is
	// unchanged.
	FaultScenarios []BenchFaultScenario `json:"fault_scenarios,omitempty"`
	// Speedup is the fast-vs-reference panel (uavbench -speedup); absent
	// in documents written before it existed — an additive field, so the
	// schema tag is unchanged.
	Speedup []BenchSpeedupRow `json:"speedup,omitempty"`
	// Serve is the serving-throughput panel (uavbench -serve); additive
	// like the panels above, so the schema tag is unchanged.
	Serve *BenchServe `json:"serve,omitempty"`
}

// RunBench executes the named figure drivers with instrumentation on and
// returns the perf baseline: per-figure wall clock, planner-only time,
// counter totals, and collected volumes. preset is recorded verbatim for
// provenance; cfg should be the matching configuration.
func RunBench(preset string, cfg Config, figures []string) (*Bench, error) {
	cfg.Metrics = true
	b := &Bench{
		Schema:    BenchSchema,
		Preset:    preset,
		Instances: cfg.Instances,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, name := range figures {
		start := time.Now() //uavdc:allow nodeterminism bench wall-clock panel; documented non-deterministic in EXPERIMENTS.md
		tab, err := Run(name, cfg)
		wall := time.Since(start).Seconds() //uavdc:allow nodeterminism bench wall-clock panel; documented non-deterministic in EXPERIMENTS.md
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s: %w", name, err)
		}
		fig := BenchFigure{
			Figure:      name,
			WallSeconds: wall,
			VolumeMB:    map[string]float64{},
			Counters:    map[string]int64{},
		}
		for _, s := range tab.Series {
			for _, p := range s.Points {
				fig.VolumeMB[s.Name] += p.Volume
				for cname, n := range p.Counters {
					fig.Counters[cname] += n
				}
			}
		}
		fig.PlanSeconds, fig.PlanCalls = planTimerTotals(tab)
		b.Figures = append(b.Figures, fig)
	}
	return b, nil
}

// planTimerTotals sums the per-point plan timer that runSweep folds into
// the counter map via snapshotting; the timer itself lives outside
// Point.Counters, so it is re-derived here from the runtime panel: mean
// runtime × N per point.
func planTimerTotals(tab *Table) (seconds float64, calls int64) {
	for _, s := range tab.Series {
		for _, p := range s.Points {
			seconds += p.Runtime * float64(p.N)
			calls += int64(p.N)
		}
	}
	return seconds, calls
}

// BenchSpeedup runs each named figure driver twice under the given
// configuration — once with Config.Reference set (the retained full-scan
// path) and once on the default fast path — and returns one row per
// figure: both planner-only wall times, the candidate-evaluation ledger,
// and whether the deterministic panels matched bit-for-bit. A row with
// BitIdentical == false means the fast path changed behaviour, not just
// speed, and the accompanying differential tests should be failing too.
func BenchSpeedup(preset string, cfg Config, figures []string) ([]BenchSpeedupRow, error) {
	cfg.Metrics = true
	measure := func(name string, reference bool) (seconds float64, volumes map[string]float64, calls int64, counters map[string]int64, err error) {
		c := cfg
		c.Reference = reference
		tab, err := Run(name, c)
		if err != nil {
			return 0, nil, 0, nil, fmt.Errorf("experiments: speedup %s (reference=%v): %w", name, reference, err)
		}
		volumes = map[string]float64{}
		counters = map[string]int64{}
		for _, s := range tab.Series {
			for _, p := range s.Points {
				volumes[s.Name] += p.Volume
				for cname, n := range p.Counters {
					counters[cname] += n
				}
			}
		}
		seconds, calls = planTimerTotals(tab)
		return seconds, volumes, calls, counters, nil
	}
	rows := make([]BenchSpeedupRow, 0, len(figures))
	for _, name := range figures {
		refSec, refVols, refCalls, refCounters, err := measure(name, true)
		if err != nil {
			return nil, err
		}
		fastSec, fastVols, fastCalls, fastCounters, err := measure(name, false)
		if err != nil {
			return nil, err
		}
		row := BenchSpeedupRow{
			Figure:           name,
			Preset:           preset,
			ReferenceSeconds: refSec,
			FastSeconds:      fastSec,
			ReferenceEvals:   refCounters[core.CounterCandidateEvals],
			FastEvals:        fastCounters[core.CounterCandidateEvals],
			SkippedEvals:     fastCounters[core.CounterScanSkippedDrained],
		}
		if fastSec > 0 {
			row.Speedup = refSec / fastSec
		}
		row.BitIdentical = speedupPanelsEqual(refVols, fastVols, refCalls, fastCalls, refCounters, fastCounters)
		rows = append(rows, row)
	}
	return rows, nil
}

// speedupPanelsEqual compares the deterministic panels of a reference and
// a fast run: volumes and plan calls exactly, counters exactly except the
// scan work ledger.
func speedupPanelsEqual(refVols, fastVols map[string]float64, refCalls, fastCalls int64, refCounters, fastCounters map[string]int64) bool {
	if refCalls != fastCalls || len(refVols) != len(fastVols) {
		return false
	}
	for series, want := range refVols {
		got, ok := fastVols[series]
		if !ok || got != want { // exact compare: bit-identity is the contract being verified
			return false
		}
	}
	names := map[string]bool{}
	for cname := range refCounters {
		names[cname] = true
	}
	for cname := range fastCounters {
		names[cname] = true
	}
	for cname := range names {
		if speedupWorkCounters[cname] {
			continue
		}
		if refCounters[cname] != fastCounters[cname] {
			return false
		}
	}
	return true
}

// BenchFaultScenarios computes the adaptive-execution panel: each planner
// plans every preset network fault-free at the preset's nominal capacity,
// the adaptive executor flies each plan under the given schedule, and the
// per-planner row aggregates promised vs retained volume. Everything here
// is deterministic — no timing fields — so rows diff cleanly across repo
// states.
func BenchFaultScenarios(cfg Config, spec string) ([]BenchFaultScenario, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	sched, err := faults.Parse(spec)
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
		&core.Algorithm2{Workers: cfg.Workers},
		&core.Algorithm3{Workers: cfg.Workers},
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
			res := simulate.AdaptiveRun(in, plan, simulate.AdaptiveOptions{
				Faults:  sched,
				Workers: cfg.Workers,
			})
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

// WriteJSON writes the bench document as indented JSON with a trailing
// newline. Map keys are emitted sorted (encoding/json), so two runs of the
// same configuration differ only in the timing fields.
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBench parses a BENCH_*.json document and checks its schema tag.
//
//uavdc:allow deadexport test oracle: the experiments and uavbench tests read bench files back with it
func ReadBench(r io.Reader) (*Bench, error) {
	var b Bench
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench file: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("experiments: bench schema %q, want %q", b.Schema, BenchSchema)
	}
	return &b, nil
}
