package tsp

import (
	"slices"

	"uavdc/internal/obs"
)

// Pruner polishes a tour over the items of a dense matrix the caller
// already holds (the baselines, which then remove one item at a time
// with a re-tour after each, and orienteering) and polishes it again
// after every edit. Every call returns, and leaves behind, exactly the
// cost reduction, tour, counters and trace span of a fresh search
// (ImproveMetric) on the same tour.
//
// The Pruner remembers the tour's last fixed point and replays the search
// from it (see fixedPoint): a removal, at any position, leaves one new
// edge joining the removed item's neighbours, so the re-tour evaluates
// only the 2-opt pairs and Or-opt tests that touch it, plus those that
// touch the edges its own moves change. Its first polish is a fresh
// search.
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

// Improve polishes the tour, replaying from its last fixed point.
func (p *Pruner) Improve(rec ...obs.Recorder) float64 {
	r := obs.First(rec...)
	if p.x == nil {
		return ImproveMetric(&p.Tour, p.m, r)
	}
	return p.fp.improve(&p.Tour, p.x, r)
}

// RemoveAt deletes the item at position pos, then polishes the shortened
// tour, returning its cost reduction.
func (p *Pruner) RemoveAt(pos int, rec ...obs.Recorder) float64 {
	p.Tour.Order = slices.Delete(p.Tour.Order, pos, pos+1)
	return p.Improve(rec...)
}
