package hover

import (
	"uavdc/internal/units"
)

// rate returns the uplink rate of the i-th covered sensor of loc.
func (s *Set) rate(loc *Location, i int) units.BitsPerSecond {
	if loc.Rates != nil {
		return loc.Rates[i]
	}
	return units.BitsPerSecond(s.Net.Bandwidth)
}

// RateAt returns the uplink rate of the i-th covered sensor of location
// base (the constant bandwidth when the set was built without a radio
// model).
//
//uavdc:allow deadexport test oracle: the core exact-solver tests price sojourns with it
func (s *Set) RateAt(base, i int) units.BitsPerSecond {
	return s.rate(&s.Locs[base], i)
}

// ResidualDrain returns the sojourn and award for fully draining the given
// sensors when their remaining volumes are residual[v] (the Algorithm 3
// recomputation step: after partial collection elsewhere, both t' and P'
// shrink). rates is parallel to covered; nil means every sensor uploads at
// bandwidth. Sensors with zero residual contribute nothing.
func ResidualDrain(covered []int, residual []units.Bits, rates []units.BitsPerSecond, bandwidth units.BitsPerSecond) (sojourn units.Seconds, award units.Bits) {
	for i, v := range covered {
		d := residual[v]
		if d <= 0 {
			continue
		}
		award += d
		r := bandwidth
		if rates != nil {
			r = rates[i]
		}
		if t := units.TransferTime(d, r); t > sojourn {
			sojourn = t
		}
	}
	return sojourn, award
}
