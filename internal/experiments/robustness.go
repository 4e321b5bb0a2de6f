package experiments

import (
	"fmt"
	"time"

	"uavdc/internal/core"
	"uavdc/internal/simulate"
	"uavdc/internal/stats"
	"uavdc/internal/units"
)

// ExtRobustness is an extension experiment: mission completion probability
// and realised collection under stochastic power draw, as a function of
// the capacity margin the planner holds back. The paper's planners spend
// the battery to the last joule; under ±20% per-segment power noise such
// plans die mid-air. The driver plans with a derated budget
// E·(1 − margin), then flies each plan against the full battery with 25
// noisy repetitions per instance, reporting the completion rate (in the
// volume column, as a percentage) and the mean realised collection ratio
// versus the deterministic plan (runtime column abused for planning time).
func ExtRobustness(cfg Config) (*Table, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	nets, err := cfg.networks()
	if err != nil {
		return nil, err
	}
	const noiseSpread = 0.2
	const repetitions = 25
	margins := []float64{0, 0.05, 0.1, 0.2, 0.3}
	tab := &Table{
		Figure: "ext-robustness",
		Title:  fmt.Sprintf("extension: completion rate under ±%.0f%% power noise vs capacity margin", 100*noiseSpread),
		XLabel: "capacity margin",
		XUnit:  "fraction",
	}
	completion := Series{Name: "completion-pct"}
	realised := Series{Name: "realised-volume-pct"}
	for _, margin := range margins {
		var rates, ratios, times []float64
		for ni, net := range nets {
			in := &core.Instance{
				Net:       net,
				Model:     cfg.Model.WithCapacity(units.Scale(cfg.Model.Capacity, 1-margin)),
				Delta:     units.Meters(cfg.Delta),
				K:         2,
				Reference: cfg.Reference,
			}
			start := time.Now() //uavdc:allow nodeterminism runtime column measures wall time; volumes stay deterministic
			plan, err := (&core.Algorithm3{}).Plan(in)
			times = append(times, time.Since(start).Seconds()) //uavdc:allow nodeterminism runtime column measures wall time; volumes stay deterministic
			if err != nil {
				return nil, fmt.Errorf("experiments: robustness margin=%v: %w", margin, err)
			}
			planned := plan.Collected()
			fullBattery := cfg.Model // the UAV flies with the whole battery
			completed := 0
			var gathered float64
			for rep := 0; rep < repetitions; rep++ {
				res := simulate.Run(net, fullBattery, plan, simulate.Options{
					Noise: simulate.Noise{Spread: noiseSpread, Seed: int64(ni*1000 + rep)},
				})
				if res.Completed {
					completed++
				}
				gathered += res.Collected
			}
			rates = append(rates, 100*float64(completed)/repetitions)
			if planned > 0 {
				ratios = append(ratios, 100*gathered/(repetitions*planned))
			}
		}
		rs, qs, ts := stats.Summarize(rates), stats.Summarize(ratios), stats.Summarize(times)
		completion.Points = append(completion.Points, Point{
			X: margin, Volume: rs.Mean, VolumeCI: rs.CI95(),
			Runtime: ts.Mean, RuntimeCI: ts.CI95(), N: rs.N,
		})
		realised.Points = append(realised.Points, Point{
			X: margin, Volume: qs.Mean, VolumeCI: qs.CI95(),
			Runtime: ts.Mean, RuntimeCI: ts.CI95(), N: qs.N,
		})
	}
	tab.Series = []Series{completion, realised}
	return tab, nil
}
