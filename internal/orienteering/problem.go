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

// Problem is a rooted cycle-orienteering instance over the nodes
// 0..len(Reward)-1.
//
// The solvers keep polish state in the Problem, so a Problem belongs to one
// solve at a time: concurrent solves need a Problem each.
type Problem struct {
	// Cost is the non-negative travel cost between every two nodes,
	// symmetric bit for bit: the tour polish assumes it (see tsp.Matrix),
	// and Validate checks it. For the paper's reduction this is w2 of
	// Eq. 9 and must satisfy the triangle inequality (Lemma 1 guarantees
	// it does).
	Cost *tsp.Matrix
	// Reward[i] is the award collected when node i is visited (p of
	// Eq. 6). The depot conventionally has reward zero.
	Reward []float64
	// Budget is the maximum allowed tour cost (the UAV energy capacity).
	Budget float64
	// Depot is the node every tour must contain.
	Depot int

	// of is the Cost that dist and rt were built over; both are rebuilt
	// when Cost is replaced. dist is Cost as a Metric, and rt replays
	// polish from the last fixed point it reached.
	of   *tsp.Matrix
	dist tsp.Metric
	rt   *tsp.Retour
}

// Validate reports whether the instance is well formed.
func (p *Problem) Validate() error {
	n := len(p.Reward)
	if p.Depot < 0 || p.Depot >= n {
		return fmt.Errorf("orienteering: depot %d out of range [0,%d)", p.Depot, n)
	}
	if p.Cost == nil || p.Cost.Len() != n {
		return fmt.Errorf("orienteering: Cost must be a matrix over the %d nodes", n)
	}
	if !p.Cost.Symmetric() {
		return fmt.Errorf("orienteering: Cost is not symmetric")
	}
	if math.IsNaN(p.Budget) || p.Budget < 0 {
		return fmt.Errorf("orienteering: invalid budget %v", p.Budget)
	}
	return nil
}

// metric returns Cost as a Metric, built once per matrix.
func (p *Problem) metric() tsp.Metric {
	if p.of != p.Cost {
		p.of, p.dist, p.rt = p.Cost, p.Cost.Metric(), tsp.NewRetour(p.Cost)
	}
	return p.dist
}

// polish re-orders t as tsp.ImproveMetric does. A tsp.Retour over Cost
// replays the search from the fixed point the last polish reached: the
// solvers polish tours that differ from the previous one by a few edits,
// and a Retour allows any edit between calls, so polish only re-evaluates
// the moves those edits could have made improving.
func (p *Problem) polish(t *tsp.Tour) float64 {
	m := p.metric()
	return p.rt.Improve(t, m)
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
		sum += p.Reward[v]
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
		if v < 0 || v >= len(p.Reward) {
			return fmt.Errorf("orienteering: node %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("orienteering: node %d visited twice", v)
		}
		seen[v] = true
	}
	if c := t.Cost(p.metric()); c > p.Budget+1e-9 {
		return fmt.Errorf("orienteering: tour cost %v exceeds budget %v", c, p.Budget)
	}
	return nil
}

// solutionFor packages a tour as a Solution.
func (p *Problem) solutionFor(t tsp.Tour) Solution {
	return Solution{Tour: t, Reward: p.TotalReward(t), Cost: t.Cost(p.metric())}
}

// depotOnly is the always-feasible fallback: stay at the depot.
func (p *Problem) depotOnly() Solution {
	return p.solutionFor(tsp.Tour{Order: []int{p.Depot}})
}
