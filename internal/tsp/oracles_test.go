package tsp

import (
	"fmt"
	"math"
	"sort"

	"uavdc/internal/graph"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// NearestNeighbor builds a tour by starting at items[0] and repeatedly
// moving to the closest unvisited item. Simple, fast (O(k²)) and a useful
// baseline/seed for local search.
func NearestNeighbor(items []int, m Metric) Tour {
	k := len(items)
	if k == 0 {
		return Tour{}
	}
	order := make([]int, 0, k)
	used := make([]bool, k)
	cur := 0
	used[0] = true
	order = append(order, items[0])
	for len(order) < k {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if !used[i] {
				if d := m(items[cur], items[i]); d < bestD {
					best, bestD = i, d
				}
			}
		}
		used[best] = true
		order = append(order, items[best])
		cur = best
	}
	return Tour{Order: order}
}

// CheapestInsertion builds a tour by starting from items[0] and repeatedly
// inserting the unvisited item whose best insertion position increases the
// tour cost least. O(k³) worst case but excellent quality on Euclidean
// instances; used when a fresh tour over a small selected set is needed.
func CheapestInsertion(items []int, m Metric) Tour {
	k := len(items)
	if k == 0 {
		return Tour{}
	}
	order := []int{items[0]}
	used := make([]bool, k)
	used[0] = true
	for len(order) < k {
		bestItem, bestPos, bestDelta := -1, 0, math.Inf(1)
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			pos, delta := BestInsertion(Tour{Order: order}, items[i], m)
			if delta < bestDelta {
				bestItem, bestPos, bestDelta = i, pos, delta
			}
		}
		used[bestItem] = true
		order = append(order, 0)
		copy(order[bestPos+1:], order[bestPos:])
		order[bestPos] = items[bestItem]
	}
	return Tour{Order: order}
}

// MSTLowerBound returns the weight of the minimum spanning tree over items,
// a lower bound on the optimal tour cost (any tour minus one edge is a
// spanning tree). Used by tests to sandwich heuristic tours.
func MSTLowerBound(items []int, m Metric) (float64, error) {
	k := len(items)
	if k < 2 {
		return 0, nil
	}
	edges, ok := graph.Prim(k, func(i, j int) float64 { return m(items[i], items[j]) })
	if !ok {
		return 0, fmt.Errorf("tsp: disconnected")
	}
	return graph.TotalWeight(edges), nil
}

// Validate checks that the tour visits each of the given items exactly once
// and nothing else.
func (t Tour) Validate(items []int) error {
	if len(t.Order) != len(items) {
		return fmt.Errorf("tsp: tour has %d items, want %d", len(t.Order), len(items))
	}
	want := append([]int(nil), items...)
	got := append([]int(nil), t.Order...)
	sort.Ints(want)
	sort.Ints(got)
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("tsp: tour items differ from expected at sorted position %d: %d vs %d", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return fmt.Errorf("tsp: duplicate item %d in tour", got[i])
		}
	}
	return nil
}

// Improve is the plain polish, the oracle for the production search
// (fixedPoint, behind ImproveMetric and Retour): 2-opt to a fixed
// point, then up to two Or-opt rounds, until neither helps (bounded
// iterations), with sweeps that evaluate every pair. It returns the total
// reduction; an optional obs.Recorder counts both passes' sweeps and
// moves and receives the tsp/improve span.
func Improve(t *Tour, x *Matrix, rec ...obs.Recorder) float64 {
	saved, _ := improve(t, x, obs.First(rec...))
	return saved
}

// improve is Improve, also reporting whether its last iteration accepted
// no move: whether the final tour is a fixed point of one full 2-opt
// sweep and one full Or-opt round.
func improve(t *Tour, x *Matrix, r obs.Recorder) (total float64, fixed bool) {
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", t.Len()))
	for iter := 0; iter < improveIters; iter++ {
		s2, m2 := twoOpt(t, x, 0, r)
		s3, m3 := orOpt(t, x, orOptRounds, r)
		d := s2 + s3
		total += d
		fixed = m2+m3 == 0
		if d <= 1e-12 {
			break
		}
	}
	end(trace.Num("saved_m", total))
	return total, fixed
}

// twoOpt improves t in place by repeatedly reversing segments while an
// improving 2-exchange exists, up to maxRounds full sweeps (≤ 0 means sweep
// until no improvement). Returns the total cost reduction and the number
// of accepted moves, which r also counts, with the sweeps.
func twoOpt(t *Tour, x *Matrix, maxRounds int, r obs.Recorder) (float64, int) {
	n := t.Len()
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterTwoOptPasses)
	moves := r.Counter(CounterTwoOptMoves)
	var saved float64
	var moved int
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for i := 0; i < n-1; i++ {
			a := t.Order[i]
			b := t.Order[i+1]
			dAB := x.at(a, b)
			for j := i + 2; j < n; j++ {
				// Reversing t.Order[i+1..j] replaces edges (a,b),(c,d)
				// with (a,c),(b,d).
				c := t.Order[j]
				d := t.Order[(j+1)%n]
				if i == 0 && j == n-1 {
					continue // same edge pair on the cycle
				}
				ac, bd, cd := x.at(a, c), x.at(b, d), x.at(c, d)
				delta := ac + bd - dAB - cd
				if improves(delta, ac, bd, dAB, cd) {
					reverse(t.Order[i+1 : j+1])
					saved -= delta
					improved = true
					moved++
					moves.Inc()
					b = t.Order[i+1]
					dAB = x.at(a, b)
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}

// orOpt improves t in place by relocating chains of 1–3 consecutive items
// to better positions, complementing 2-opt (which cannot fix misplaced
// single stops), up to maxRounds rounds. Returns the total cost reduction
// and the number of accepted relocations, which r also counts, with the
// rounds.
func orOpt(t *Tour, x *Matrix, maxRounds int, r obs.Recorder) (float64, int) {
	n := t.Len()
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterOrOptPasses)
	moves := r.Counter(CounterOrOptMoves)
	var saved float64
	var moved int
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for segLen := 1; segLen <= 3 && segLen < n-1; segLen++ {
			for i := 0; i < n; i++ {
				// Segment s = positions i..i+segLen-1. Segments that
				// cross the wrap are never tested: nothing here rotates
				// the tour, so they stay skipped until a caller does.
				if i+segLen > n {
					continue
				}
				prev := t.Order[(i-1+n)%n]
				segStart := t.Order[i]
				segEnd := t.Order[i+segLen-1]
				next := t.Order[(i+segLen)%n]
				if prev == segEnd || next == segStart {
					continue // segment is the whole cycle
				}
				ps, en, pn := x.at(prev, segStart), x.at(segEnd, next), x.at(prev, next)
				removeGain := ps + en - pn
				if removeGain <= 1e-12 {
					continue
				}
				// Try inserting between every other edge (a, b).
				for j := 0; j < n; j++ {
					a := t.Order[j]
					b := t.Order[(j+1)%n]
					// Skip edges touching the segment or its boundary.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					if i == 0 && j == n-1 {
						continue
					}
					as, eb, ab := x.at(a, segStart), x.at(segEnd, b), x.at(a, b)
					insCost := as + eb - ab
					if insCost < removeGain-1e-12 && removeGain-insCost > 1e-14*(ps+en+pn+as+eb+ab) {
						relocate(t.Order, i, segLen, j)
						saved += removeGain - insCost
						improved = true
						moved++
						moves.Inc()
						// One move per segment length and round: leave
						// the i loop and go on to the next length.
						i = -1
						break
					}
				}
				if i == -1 {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}
