package simulate

import (
	"uavdc/internal/canon"
	"uavdc/internal/radio"
	"uavdc/internal/wire"
)

// CanonParts appends the physics knobs that change a simulation's outcome:
// altitude, the uplink model, and the power-noise disturbance. Telemetry
// switches (RecordEvents, Trace) are excluded — recording never changes
// the result, and the repo's rails prove it.
func (o Options) CanonParts(e *canon.Encoder) error {
	r, err := radio.Canon(o.Radio)
	if err != nil {
		return err
	}
	e.F64(o.Altitude.F())
	e.Byte(byte(r.Kind))
	e.F64(r.RefRate, r.RefDist, r.RefSNR, r.PathLossExp)
	e.F64(o.Noise.Spread)
	e.I64(o.Noise.Seed)
	return nil
}

// adaptiveCanonTag versions the adaptive-executor key extension.
const adaptiveCanonTag = wire.SimulateAdaptive

// CanonKey widens an instance key with everything the adaptive executor's
// outcome depends on: the simulation physics, the fault schedule, the
// replan margin, and the replan cap. Workers is excluded — replans are
// worker-invariant by construction. Unset sentinels (Margin ≤ 0,
// MaxReplans ≤ 0) are resolved to the executor's defaults first.
//
//uavdc:allow deadexport the uavdc-simulate-adaptive/1 key extension is a registered wire format; deleting its only encoder would retire a registry entry
func (o AdaptiveOptions) CanonKey(base canon.Key) (canon.Key, error) {
	margin := o.Margin
	if margin <= 0 {
		margin = DefaultMargin
	}
	maxReplans := o.MaxReplans
	if maxReplans <= 0 {
		maxReplans = 0 // the generous default cap never binds; 0 is its canonical spelling
	}
	var partsErr error
	k := canon.ExtendKey(base, adaptiveCanonTag, func(e *canon.Encoder) {
		partsErr = o.Options.CanonParts(e)
		o.Faults.CanonParts(e)
		e.F64(margin)
		e.I64(int64(maxReplans))
	})
	if partsErr != nil {
		return canon.Key{}, partsErr
	}
	return k, nil
}
