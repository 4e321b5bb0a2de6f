// Package hover turns a sensor network into the discrete hovering-location
// model of Section III-B/IV of the paper: the monitoring region is
// partitioned into δ-squares whose centres are the candidate hovering
// locations; every candidate carries its coverage set C(s_j), the sojourn
// time t(s_j) = max_{v∈C(s_j)} D_v/B (Eq. 1/7), the award
// P(s_j) = Σ_{v∈C(s_j)} D_v (Eq. 2/6), and the hover energy
// w1(s_j) = t(s_j)·η_h (Eq. 3/8). Location 0 is always the depot, with
// empty coverage and zero cost.
//
// For Algorithm 3 the package also materialises the K virtual hovering
// locations s_{j,1..K} per real candidate, with sojourn k·t(s_j)/K and
// award per Eq. 4.
package hover

import (
	"fmt"
	"math"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// DepotID is the index of the depot in every Set.
const DepotID = 0

// Location is one candidate hovering location.
type Location struct {
	// Pos is the ground projection of the hovering location (the UAV
	// hovers at altitude H above it; all geometry is projected).
	Pos geom.Point
	// Covered lists the sensor indices within the coverage radius,
	// ascending. Empty for the depot. Each Covered (and Rates) slice is a
	// contiguous piece of one of a few arena chunks the Set's locations
	// share, capped at its own length; they are read-only.
	Covered []int
	// Rates holds the per-sensor uplink rate in MB/s, parallel to
	// Covered. Nil means every covered sensor uploads at the network
	// bandwidth B (the paper's constant-rate assumption); it is populated
	// when the candidate set is built with a distance-dependent radio
	// model.
	Rates []units.BitsPerSecond
	// Sojourn is t(s_j) in seconds: the time to fully drain every
	// covered sensor at its uplink rate (the slowest sensor dominates
	// since uploads are simultaneous).
	Sojourn units.Seconds
	// Award is P(s_j) in MB: total data available at this location.
	Award units.Bits
	// HoverEnergy is w1(s_j) = Sojourn · η_h in J.
	HoverEnergy units.Joules
	// SquareIdx is the grid square index this location is the centre of,
	// or -1 for the depot.
	SquareIdx int
}

// Set is the candidate model: depot + surviving grid-square centres.
type Set struct {
	Net   *sensornet.Network
	Model energy.Model
	// CoverRadius is R0, the projected coverage radius used to build the
	// coverage sets.
	CoverRadius units.Meters
	// Altitude is the hovering altitude H the set was built with.
	Altitude units.Meters
	// Radio is the rate model the set was built with (nil = constant B).
	Radio radio.Model
	Grid  *geom.Grid
	// Locs[0] is the depot.
	Locs []Location
	// PrunedEmpty and PrunedDup count candidates dropped during build,
	// for diagnostics.
	PrunedEmpty int
	PrunedDup   int
}

// CoverageRadius returns R0 = sqrt(R² − H²), the ground-projected coverage
// radius of a UAV hovering at altitude H with node transmission range R
// (Fig. 1(b) of the paper). It returns an error when H > R, where coverage
// is impossible.
func CoverageRadius(r, h units.Meters) (units.Meters, error) {
	if h < 0 || r <= 0 {
		return 0, fmt.Errorf("hover: invalid range R=%v altitude H=%v", r, h)
	}
	if h > r {
		return 0, fmt.Errorf("hover: altitude %v exceeds transmission range %v", h, r)
	}
	//uavdc:allow unitsafety Pythagoras on distances: sqrt(R²−H²) is again a distance, re-wrapped at the return
	return units.Meters(math.Sqrt(r.F()*r.F() - h.F()*h.F())), nil
}

// Options controls candidate construction.
type Options struct {
	// CoverRadius is R0 in metres. If zero, the network's CommRange is
	// used (altitude 0 abstraction, matching the paper's experiments
	// which set R0 = 50 m directly).
	CoverRadius units.Meters
	// Altitude is the hovering altitude H in metres. It matters in two
	// ways: when CoverRadius is zero it shrinks the effective ground
	// coverage to sqrt(R²−H²), and when Radio is set it lengthens the
	// slant path to every sensor. Zero reproduces the paper's
	// ground-level abstraction.
	Altitude units.Meters
	// Radio is the uplink rate model; nil means the paper's constant
	// bandwidth B taken from the network.
	Radio radio.Model
}

// Build constructs the candidate set for net with grid resolution delta.
// It drops squares with empty coverage sets: the paper assigns them zero
// award and sojourn, so they can never help a tour under a metric. Of the
// candidates with identical coverage sets it keeps the one whose centre
// is closest to the centroid of its covered sensors (minimising
// worst-case link length).
func Build(net *sensornet.Network, em energy.Model, delta units.Meters, opts Options) (*Set, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := em.Validate(); err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(net.Region, delta.F())
	if err != nil {
		return nil, err
	}
	if opts.Altitude < 0 {
		return nil, fmt.Errorf("hover: negative altitude %v", opts.Altitude)
	}
	r0 := opts.CoverRadius
	if r0 == 0 {
		if opts.Altitude > 0 {
			var err error
			r0, err = CoverageRadius(units.Meters(net.CommRange), opts.Altitude)
			if err != nil {
				return nil, err
			}
			if r0 == 0 {
				return nil, fmt.Errorf("hover: altitude %v leaves zero coverage at range %v", opts.Altitude, net.CommRange)
			}
		} else {
			r0 = units.Meters(net.CommRange)
		}
	}
	if r0 < 0 {
		return nil, fmt.Errorf("hover: negative coverage radius %v", r0)
	}

	s := &Set{
		Net:         net,
		Model:       em,
		CoverRadius: r0,
		Altitude:    opts.Altitude,
		Radio:       opts.Radio,
		Grid:        grid,
	}

	// The scan keeps one candidate per coverage set and copies a square's
	// covered sensors (and rates) into the arenas only when its set is new;
	// Locs is sized once from the survivors after the scan.
	var (
		sets  coverSets
		buf   []int                 // the current square's covered sensors
		rates []units.BitsPerSecond // their uplink rates (radio model only)
	)
	// The last grid row/column may overhang the region when its extent is
	// not a multiple of δ; clamp those centres back onto the boundary so
	// every candidate is a legal hovering position.
	centre := func(sq int) geom.Point { return net.Region.Clamp(grid.Center(sq)) }
	idx := net.Index()
	for sq := 0; sq < grid.NumSquares(); sq++ {
		center := centre(sq)
		buf = idx.WithinAppend(buf[:0], center, r0.F())
		if len(buf) == 0 {
			s.PrunedEmpty++
			continue
		}
		if opts.Radio != nil {
			// Every non-empty square is checked, duplicates included.
			rates = rates[:0]
			for _, v := range buf {
				slant := radio.SlantDist(units.Meters(net.Sensors[v].Pos.Dist(center)), opts.Altitude)
				r := opts.Radio.Rate(slant)
				if !(r > 0) {
					return nil, fmt.Errorf("hover: radio model yields non-positive rate %v at slant %v", r, slant)
				}
				rates = append(rates, r)
			}
		}
		h := coverHash(buf)
		if c := sets.find(h, buf); c != nil {
			// Keep whichever centre is closer to the coverage centroid.
			// The set is the same, so a winner replaces only the square
			// and the rates it sees.
			mid := centroid(net, buf)
			if mid.Dist(center) < mid.Dist(centre(c.sq)) {
				c.sq = sq
				if opts.Radio != nil {
					copy(sets.ratesOf(c), rates)
				}
			}
			s.PrunedDup++
			continue
		}
		sets.add(h, sq, buf, rates)
	}

	s.Locs = make([]Location, 1, 1+sets.n)
	s.Locs[0] = Location{Pos: net.Depot, SquareIdx: -1}
	for _, chunk := range sets.cands {
		for i := range chunk {
			c := &chunk[i]
			loc := Location{Pos: centre(c.sq), Covered: sets.set(c), SquareIdx: c.sq}
			if opts.Radio != nil {
				loc.Rates = sets.ratesOf(c)
			}
			loc.Sojourn, loc.Award = DrainRates(net, loc.Covered, loc.Rates)
			loc.HoverEnergy = em.HoverEnergy(loc.Sojourn)
			s.Locs = append(s.Locs, loc)
		}
	}
	return s, nil
}

// DrainRates returns the sojourn time and total award for fully draining
// the given sensors: t = max D_v/r_v, P = Σ D_v. rates is parallel to
// covered; nil rates means the constant network bandwidth.
func DrainRates(net *sensornet.Network, covered []int, rates []units.BitsPerSecond) (sojourn units.Seconds, award units.Bits) {
	for i, v := range covered {
		d := units.Bits(net.Sensors[v].Data)
		award += d
		r := units.BitsPerSecond(net.Bandwidth)
		if rates != nil {
			r = rates[i]
		}
		if t := units.TransferTime(d, r); t > sojourn {
			sojourn = t
		}
	}
	return sojourn, award
}

// centroid returns the mean position of the covered sensors (at least
// one), summed in order and then scaled by 1/n, so its bits are those of
// the mean of the positions taken as a slice.
func centroid(net *sensornet.Network, covered []int) geom.Point {
	var sum geom.Point
	for _, v := range covered {
		sum = sum.Add(net.Sensors[v].Pos)
	}
	return sum.Scale(1 / float64(len(covered)))
}

// Len returns the number of candidate locations including the depot.
func (s *Set) Len() int { return len(s.Locs) }

// Dist returns the Euclidean flight distance between locations i and j.
func (s *Set) Dist(i, j int) float64 { return s.Locs[i].Pos.Dist(s.Locs[j].Pos) }

// TravelEnergy returns the flight energy between locations i and j:
// l(s_i, s_j) · η_t / v.
func (s *Set) TravelEnergy(i, j int) units.Joules {
	return s.Model.TravelEnergy(units.Meters(s.Dist(i, j)))
}

// AuxiliaryWeight returns w2(s_i, s_j) of Eq. 9: half the hover energies of
// both endpoints plus the travel energy of the edge. Lemma 1 proves the
// resulting complete graph is metric; TestAuxiliaryWeightIsMetric verifies
// it empirically.
func (s *Set) AuxiliaryWeight(i, j int) units.Joules {
	if i == j {
		return 0
	}
	return (s.Locs[i].HoverEnergy+s.Locs[j].HoverEnergy)/2 + s.TravelEnergy(i, j)
}
