package core

import (
	"uavdc/internal/canon"
	"uavdc/internal/radio"
)

// Canonical maps the typed planning instance to the canonical encoding.
// The algorithm name and refine flag complete the planner selection — they
// live outside core.Instance (the facade resolves them) but inside the
// cache identity. The Obs recorder and the Reference path switch are
// deliberately absent: the determinism and fast-path parity rails
// guarantee they never change the plan.
func (in *Instance) Canonical(algorithm string, refine bool) (canon.Instance, error) {
	r, err := radio.Canon(in.Radio)
	if err != nil {
		return canon.Instance{}, err
	}
	out := canon.Instance{
		MinX: in.Net.Region.Min.X, MinY: in.Net.Region.Min.Y,
		MaxX: in.Net.Region.Max.X, MaxY: in.Net.Region.Max.Y,
		DepotX: in.Net.Depot.X, DepotY: in.Net.Depot.Y,
		Sensors:       make([]canon.Sensor, len(in.Net.Sensors)),
		BandwidthMBps: in.Net.Bandwidth,
		CommRangeM:    in.Net.CommRange,
		HoverPowerW:   in.Model.HoverPower.F(),
		TravelPowerW:  in.Model.TravelPower.F(),
		SpeedMS:       in.Model.Speed.F(),
		CapacityJ:     in.Model.Capacity.F(),
		ClimbPowerW:   in.Model.ClimbPower.F(),
		ClimbRateMS:   in.Model.ClimbRate.F(),
		DeltaM:        in.Delta.F(),
		CoverRadiusM:  in.CoverRadius.F(),
		K:             int64(in.K),
		AltitudeM:     in.Altitude.F(),
		Radio:         r,
		Algorithm:     algorithm,
		Refine:        refine,
	}
	for i, s := range in.Net.Sensors {
		out.Sensors[i] = canon.Sensor{X: s.Pos.X, Y: s.Pos.Y, Data: s.Data}
	}
	return out, nil
}

// CanonKey content-addresses the instance plus planner selection.
func (in *Instance) CanonKey(algorithm string, refine bool) (canon.Key, error) {
	ci, err := in.Canonical(algorithm, refine)
	if err != nil {
		return canon.Key{}, err
	}
	return ci.Key(), nil
}
