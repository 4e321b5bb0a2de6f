// Package tsp provides travelling-salesman tours over arbitrary metrics:
// Christofides' 3/2-approximation (the algorithm the paper uses for tour
// construction in Algorithm 2/3 and in the evaluation benchmark),
// cheapest-insertion pricing (the incremental form the greedy planners use
// to price candidate hovering locations), one 2-opt / Or-opt polish that
// replays its search from a tour's last fixed point after an edit, or
// searches the whole tour when nothing is certified (ImproveMetric, for a
// one-shot polish, and Retour, for a tour polished after every edit:
// NewRetour's over the items of a matrix the caller holds, as in the
// baselines' prune loops and orienteering, and a zero Retour's, whose
// matrix grows with the tour, for the greedy planners' re-tour after each
// acceptance), and an exact Held–Karp solver used as a test oracle.
//
// All algorithms work on index sets 0..n-1. Construction and insertion
// pricing take costs as a Metric function, so callers can plug in
// Euclidean distance, energy-weighted distance, or the paper's
// auxiliary-graph weights. The local search runs on a Matrix, a dense
// table of a Metric's exact values; ImproveMetric fills one over a
// tour's items per call, and a zero Retour keeps one that grows with the
// tour.
package tsp

import (
	"fmt"
)

// Metric returns the travel cost between items i and j. Implementations
// must be symmetric, non-negative and zero on the diagonal; Christofides
// additionally assumes the triangle inequality.
type Metric func(i, j int) float64

// Tour is a closed tour: the cyclic visiting order of a set of item
// indices. A tour of length 0 or 1 is degenerate but valid (the vehicle
// never moves, or visits one site and returns).
type Tour struct {
	Order []int
}

// Len returns the number of visited items.
func (t Tour) Len() int { return len(t.Order) }

// Cost returns the total cycle cost of the tour under m.
func (t Tour) Cost(m Metric) float64 {
	n := len(t.Order)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += m(t.Order[i], t.Order[(i+1)%n])
	}
	return sum
}

// Contains reports whether item v appears in the tour.
func (t Tour) Contains(v int) bool {
	for _, x := range t.Order {
		if x == v {
			return true
		}
	}
	return false
}

// IndexOf returns the position of item v in the order, or -1.
func (t Tour) IndexOf(v int) int {
	for i, x := range t.Order {
		if x == v {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the tour.
func (t Tour) Clone() Tour {
	return Tour{Order: append([]int(nil), t.Order...)}
}

// RotateTo rotates the order in place so that item v comes first. It
// panics if v is not in the tour: tours in this library always include the
// depot, so a missing anchor is a programming error.
func (t *Tour) RotateTo(v int) {
	i := t.IndexOf(v)
	if i < 0 {
		panic(fmt.Sprintf("tsp: item %d not in tour", v))
	}
	if i == 0 {
		return
	}
	rotated := append(append([]int(nil), t.Order[i:]...), t.Order[:i]...)
	copy(t.Order, rotated)
}
