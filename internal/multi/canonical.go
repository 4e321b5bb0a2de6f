package multi

import (
	"uavdc/internal/canon"
	"uavdc/internal/wire"
)

// canonTag versions the fleet-knob key extension.
const canonTag = wire.Multi

// CanonKey widens a single-UAV instance key with the fleet knobs: fleet
// size, partition strategy, and the k-means seed. The base planner enters
// through its name (nil resolves to Algorithm 3, exactly as PlanFleet
// does), so a spelled-out default and an elided one address the same
// cache line.
//
//uavdc:allow deadexport the uavdc-multi/1 key extension is a registered wire format; deleting its only encoder would retire a registry entry
func (o Options) CanonKey(base canon.Key) canon.Key {
	name := "algorithm3"
	if o.Base != nil {
		name = o.Base.Name()
	}
	return canon.ExtendKey(base, canonTag, func(e *canon.Encoder) {
		e.I64(int64(o.Fleet), int64(o.Strategy))
		e.U64(o.Seed)
		e.Str(name)
	})
}
