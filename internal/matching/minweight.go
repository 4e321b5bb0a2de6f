package matching

import (
	"fmt"
	"math"
	"sort"

	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// scaleBits controls the fixed-point precision when converting float64
// costs to the integer weights the blossom solver needs. 2^20 ≈ 10⁻⁶
// relative precision on kilometre-scale distances, far below the physical
// noise of the model.
const scaleBits = 20

// MinWeightPerfect computes an exact minimum-weight perfect matching on the
// complete graph on n vertices whose edge (i, j) costs cost(i, j)
// (symmetric, non-negative and finite; the diagonal is never read). n must
// be even and non-negative. It returns the mate array and the total cost
// of the matching.
//
// cost is read twice per ordered pair, row by row: once to find the
// largest cost and once to convert each cost to its integer weight.
//
// Costs are converted to fixed-point integers; the reduction to
// maximum-weight matching sets w'(u,v) = C - cost(u,v) with C above every
// cost, which makes every edge profitable and therefore forces perfection
// on a complete even-order graph while inverting the objective.
func MinWeightPerfect(n int, cost func(i, j int) float64) ([]int, float64, error) {
	if err := checkOrder(n); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	if n%2 != 0 {
		return nil, 0, fmt.Errorf("matching: odd number of vertices %d", n)
	}
	var maxC float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			c := cost(i, j)
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, 0, fmt.Errorf("matching: invalid cost %v at (%d,%d)", c, i, j)
			}
			if c > maxC {
				maxC = c
			}
		}
	}
	scale := float64(int64(1) << scaleBits)
	if maxC > 0 {
		// Keep the scaled ceiling comfortably inside int64 even after the
		// C - w inversion and dual sums.
		for maxC*scale > 1e15 {
			scale /= 2
		}
	}
	ceilC := int64(maxC*scale) + 2
	w := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// ×2 keeps the solver's half-integral duals integral.
			w[i*n+j] = 2 * (ceilC - int64(math.Round(cost(i, j)*scale)))
		}
	}
	mate := maxWeight(n, w)
	total := 0.0
	for u, v := range mate {
		if v < 0 {
			return nil, 0, fmt.Errorf("matching: vertex %d left unmatched", u)
		}
		if mate[v] != u {
			return nil, 0, fmt.Errorf("matching: inconsistent mates %d↔%d", u, v)
		}
		if u < v {
			total += cost(u, v)
		}
	}
	return mate, total, nil
}

// checkOrder reports a negative order.
func checkOrder(n int) error {
	if n < 0 {
		return fmt.Errorf("matching: negative order %d", n)
	}
	return nil
}

// GreedyPerfect computes a perfect matching on the complete graph on n
// vertices whose edge (i, j) costs cost(i, j), read only with i < j, by
// repeatedly taking the globally cheapest remaining edge.
// It is a fast O(n² log n) fallback with no optimality guarantee (worst
// case Θ(n) times optimum, typically within a few percent on random
// Euclidean inputs). n must be even.
func GreedyPerfect(n int, cost func(i, j int) float64) ([]int, float64, error) {
	if err := checkOrder(n); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	if n%2 != 0 {
		return nil, 0, fmt.Errorf("matching: odd number of vertices %d", n)
	}
	type pair struct {
		u, v int
		c    float64
	}
	edges := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, pair{i, j, cost(i, j)})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].c < edges[b].c })
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	total := 0.0
	matched := 0
	for _, e := range edges {
		if mate[e.u] < 0 && mate[e.v] < 0 {
			mate[e.u], mate[e.v] = e.v, e.u
			total += e.c
			matched += 2
			if matched == n {
				break
			}
		}
	}
	return mate, total, nil
}

// ExactThreshold is the size above which PerfectAuto switches from the
// exact blossom solver to the greedy heuristic. The O(n³) solver handles a
// few hundred vertices in well under a second; beyond ~600 the cubic cost
// begins to dominate planner runtime.
const ExactThreshold = 600

// Instrumentation counter names recorded by PerfectAuto.
const (
	// CounterBlossomRuns counts exact blossom matchings.
	CounterBlossomRuns = "matching.blossom_runs"
	// CounterGreedyRuns counts greedy-fallback matchings (instances above
	// ExactThreshold, where the optimality guarantee is given up).
	CounterGreedyRuns = "matching.greedy_runs"
)

// Trace span names emitted by PerfectAuto, one per solver choice.
const (
	SpanBlossom = "matching/blossom"
	SpanGreedy  = "matching/greedy"
)

// PerfectAuto picks the exact solver for n ≤ ExactThreshold and the greedy
// heuristic above, on the edge costs cost(i, j), returning the
// matching, its cost, and whether it is provably optimal. An optional
// obs.Recorder counts which solver ran.
func PerfectAuto(n int, cost func(i, j int) float64, rec ...obs.Recorder) (mate []int, total float64, exact bool, err error) {
	r := obs.First(rec...)
	tr := trace.Of(r)
	if n <= ExactThreshold {
		r.Counter(CounterBlossomRuns).Inc()
		end := tr.Begin(SpanBlossom, trace.Int("n", n))
		mate, total, err = MinWeightPerfect(n, cost)
		end()
		return mate, total, true, err
	}
	r.Counter(CounterGreedyRuns).Inc()
	end := tr.Begin(SpanGreedy, trace.Int("n", n))
	mate, total, err = GreedyPerfect(n, cost)
	end()
	return mate, total, false, err
}
