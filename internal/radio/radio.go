// Package radio models the sensor→UAV uplink rate. The paper assumes every
// covered sensor uploads at one fixed bandwidth B, arguing the
// distance-induced differences are negligible at low hovering altitude
// (Section III-B). A nil Model is that constant B everywhere; this package
// provides a Shannon-capacity model over free-space path loss, so the
// planners and the simulator can be run with the assumption *removed* —
// the ablation the paper gestures at but does not evaluate.
//
// Rates are in MB/s, distances in metres.
package radio

import (
	"math"

	"uavdc/internal/units"
)

// Model yields the achievable uplink rate at a given slant distance (the
// 3-D straight-line distance between sensor and hovering UAV).
type Model interface {
	// Rate returns the rate in MB/s at slant distance d ≥ 0. It must be
	// non-increasing in d and strictly positive for every distance the
	// coverage model admits.
	Rate(d units.Meters) units.BitsPerSecond
}

// Shannon is a capacity-style model over free-space path loss: the
// received SNR falls with the path-loss exponent, and the rate follows
// W·log2(1+SNR), scaled so the rate at RefDist equals RefRate. It captures
// the qualitative truth the paper waves off: far sensors upload slower, so
// sojourns computed under the constant-B assumption are optimistic.
type Shannon struct {
	// RefRate is the rate at RefDist, MB/s.
	RefRate units.BitsPerSecond
	// RefDist is the calibration distance, metres (e.g. the hover
	// altitude, where the paper's B is measured).
	RefDist units.Meters
	// RefSNR is the linear SNR at RefDist (typical uplink: 10–1000).
	RefSNR float64
	// PathLossExp is the path-loss exponent α (2 = free space,
	// 2.7–3.5 = urban).
	PathLossExp float64
}

// Rate implements Model. The implicit channel width W is chosen so that
// Rate(RefDist) = RefRate; SNR(d) = RefSNR·(RefDist/d)^α.
func (s Shannon) Rate(d units.Meters) units.BitsPerSecond {
	if d < s.RefDist {
		d = s.RefDist // inside the calibration sphere the link saturates
	}
	snr := s.RefSNR * math.Pow(units.Ratio(s.RefDist, d), s.PathLossExp)
	w := s.RefRate.F() / math.Log2(1+s.RefSNR)
	return units.BitsPerSecond(w * math.Log2(1+snr))
}

// SlantDist returns the 3-D distance between a sensor and a UAV hovering at
// the given altitude above a point at ground distance g.
func SlantDist(groundDist, altitude units.Meters) units.Meters {
	return units.Hypot(groundDist, altitude)
}
