package tsp

import (
	"slices"

	"uavdc/internal/obs"
)

// Pruner holds a tour that is polished by Improve and then loses one item
// at a time, each removal followed by a re-tour. Every call returns, and
// leaves behind, exactly the cost reduction, tour, counters and trace span
// that Improve on the same tour would.
//
// The Pruner remembers the tour's last fixed point and replays Improve
// from it (see fixedPoint): a removal, at any position, leaves one new
// edge joining the removed item's neighbours, so the re-tour evaluates
// only the 2-opt pairs and Or-opt tests that touch it, plus those that
// touch the edges its own moves change.
type Pruner struct {
	// Tour is the current tour. Edits between calls are allowed; one
	// that reorders the kept edges, such as a rotation, makes the next
	// re-tour search the whole tour.
	Tour Tour
	x    *Matrix
	m    Metric
	fp   fixedPoint
}

// NewPruner returns a Pruner over t. The tour's items index x; with a nil
// x every re-tour is ImproveMetric over m and nothing is replayed.
func NewPruner(t Tour, x *Matrix, m Metric) *Pruner {
	return &Pruner{Tour: t, x: x, m: m}
}

// Improve is Improve on the tour.
func (p *Pruner) Improve(rec ...obs.Recorder) float64 {
	r := obs.First(rec...)
	if p.x == nil {
		return ImproveMetric(&p.Tour, p.m, r)
	}
	return p.fp.improve(&p.Tour, p.x, r)
}

// RemoveAt deletes the item at position pos, then re-tours as Improve
// would on the shortened tour, returning its cost reduction.
func (p *Pruner) RemoveAt(pos int, rec ...obs.Recorder) float64 {
	p.Tour.Order = slices.Delete(p.Tour.Order, pos, pos+1)
	return p.Improve(rec...)
}
