// Package orienteering solves the rooted orienteering problem on metric
// instances: find a closed tour through a subset of nodes, starting and
// ending at a depot, that maximises collected node reward subject to a
// budget on total tour cost.
//
// Algorithm 1 of the paper reduces the no-overlap data-collection
// maximisation problem to exactly this problem on the auxiliary graph G_s
// (the budget is the UAV energy capacity E; edge costs fold hover energy
// into travel energy per Eq. 9). The paper invokes the approximation
// algorithm of Bansal et al. (STOC'04) as a black box. That algorithm is a
// theoretical device built on min-excess path decompositions; this package
// substitutes a solver portfolio with the same contract — always feasible,
// constant-factor quality in practice — consisting of an exact
// subset-DP oracle for small instances, a Christofides tour-split
// approximation, greedy ratio insertion, and budget-constrained local
// search. DESIGN.md §5 documents the substitution.
package orienteering

import (
	"fmt"
	"math"

	"uavdc/internal/tsp"
)

// Problem is a rooted cycle-orienteering instance over items 0..N-1.
//
// The solvers keep polish state in the Problem, so a Problem belongs to one
// solve at a time: concurrent solves need a Problem each.
type Problem struct {
	// N is the number of nodes, including the depot.
	N int
	// Cost is the symmetric, non-negative travel cost metric. For the
	// paper's reduction this is w2 of Eq. 9 and must satisfy the triangle
	// inequality (Lemma 1 guarantees it does).
	Cost tsp.Metric
	// Dense, when non-nil, is Cost materialised over 0..N-1
	// (tsp.NewMatrix(N, Cost)). The tour polish then runs on it instead of
	// building a submatrix per call; the result is the same either way.
	Dense *tsp.Matrix
	// Reward is the award collected when a node is visited (p of Eq. 6).
	// The depot conventionally has reward zero.
	Reward func(i int) float64
	// Budget is the maximum allowed tour cost (the UAV energy capacity).
	Budget float64
	// Depot is the node every tour must contain.
	Depot int

	// pr replays polish on prDense from the last fixed point it reached;
	// it is rebuilt when Dense is no longer prDense.
	pr      *tsp.Pruner
	prDense *tsp.Matrix
}

// Validate reports whether the instance is well formed.
func (p *Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("orienteering: need at least one node, got %d", p.N)
	}
	if p.Depot < 0 || p.Depot >= p.N {
		return fmt.Errorf("orienteering: depot %d out of range [0,%d)", p.Depot, p.N)
	}
	if p.Cost == nil || p.Reward == nil {
		return fmt.Errorf("orienteering: Cost and Reward must be non-nil")
	}
	if math.IsNaN(p.Budget) || p.Budget < 0 {
		return fmt.Errorf("orienteering: invalid budget %v", p.Budget)
	}
	return nil
}

// polish re-orders t as tsp.Improve does, on Dense when the problem has
// it. There, a Pruner replays the search from the fixed point the last
// polish reached: the solvers polish tours that differ from the previous
// one by a few edits, and a Pruner allows any edit between calls, so
// polish only re-evaluates the moves those edits could have made
// improving (see tsp.Pruner).
func (p *Problem) polish(t *tsp.Tour) float64 {
	if p.Dense == nil {
		return tsp.ImproveMetric(t, p.Cost)
	}
	if p.pr == nil || p.prDense != p.Dense {
		p.pr, p.prDense = tsp.NewPruner(tsp.Tour{}, p.Dense, p.Cost), p.Dense
	}
	p.pr.Tour = *t
	saved := p.pr.Improve()
	*t = p.pr.Tour
	return saved
}

// Solution is a feasible closed tour and its collected reward.
type Solution struct {
	Tour   tsp.Tour
	Reward float64
	Cost   float64
}

// TotalReward sums the rewards of the visited nodes.
func (p *Problem) TotalReward(t tsp.Tour) float64 {
	var sum float64
	for _, v := range t.Order {
		sum += p.Reward(v)
	}
	return sum
}

// Feasible reports whether t is a budget-feasible closed tour containing
// the depot with no duplicate visits.
func (p *Problem) Feasible(t tsp.Tour) error {
	if !t.Contains(p.Depot) {
		return fmt.Errorf("orienteering: tour misses depot %d", p.Depot)
	}
	seen := make(map[int]bool, t.Len())
	for _, v := range t.Order {
		if v < 0 || v >= p.N {
			return fmt.Errorf("orienteering: node %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("orienteering: node %d visited twice", v)
		}
		seen[v] = true
	}
	if c := t.Cost(p.Cost); c > p.Budget+1e-9 {
		return fmt.Errorf("orienteering: tour cost %v exceeds budget %v", c, p.Budget)
	}
	return nil
}

// solutionFor packages a tour as a Solution.
func (p *Problem) solutionFor(t tsp.Tour) Solution {
	return Solution{Tour: t, Reward: p.TotalReward(t), Cost: t.Cost(p.Cost)}
}

// depotOnly is the always-feasible fallback: stay at the depot.
func (p *Problem) depotOnly() Solution {
	return p.solutionFor(tsp.Tour{Order: []int{p.Depot}})
}
