package mission

import (
	"uavdc/internal/canon"
	"uavdc/internal/wire"
)

// canonTag versions the campaign-knob key extension.
const canonTag = wire.Mission

// CanonKey widens a single-sortie instance key with the campaign knobs:
// the sortie cap, the stopping volume, the recharge turnaround, and the
// simulation physics each sortie is verified against. Unset sentinels are
// resolved to Run's defaults (MaxSorties 100, MinVolume 1 MB) first, so
// elided and spelled-out defaults address the same cache line.
//
//uavdc:allow deadexport the uavdc-mission/1 key extension is a registered wire format; deleting its only encoder would retire a registry entry
func (o Options) CanonKey(base canon.Key) (canon.Key, error) {
	maxSorties := o.MaxSorties
	if maxSorties <= 0 {
		maxSorties = 100
	}
	minVolume := o.MinVolume
	if minVolume <= 0 {
		minVolume = 1
	}
	var partsErr error
	k := canon.ExtendKey(base, canonTag, func(e *canon.Encoder) {
		e.I64(int64(maxSorties))
		e.F64(minVolume, o.RechargeTime)
		partsErr = o.Simulate.CanonParts(e)
	})
	if partsErr != nil {
		return canon.Key{}, partsErr
	}
	return k, nil
}
