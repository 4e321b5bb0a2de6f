package orienteering

import (
	"fmt"
	"math"
	"testing"

	"uavdc/internal/tsp"
)

func pathFromProblem(p *Problem, end int) *PathProblem {
	return &PathProblem{N: len(p.Reward), Cost: p.metric(), Reward: func(i int) float64 { return p.Reward[i] }, Budget: p.Budget, Start: p.Depot, End: end}
}

func TestPathValidate(t *testing.T) {
	p, _ := randomProblem(6, 100, 1)
	pp := pathFromProblem(p, 3)
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *pp
	bad.End = 9
	if bad.Validate() == nil {
		t.Error("end out of range accepted")
	}
	bad = *pp
	bad.Budget = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN budget accepted")
	}
}

func TestFeasiblePath(t *testing.T) {
	p, _ := randomProblem(6, 1000, 2)
	pp := pathFromProblem(p, 3)
	if err := pp.FeasiblePath([]int{0, 1, 3}); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
	if pp.FeasiblePath([]int{0, 1, 2}) == nil {
		t.Error("wrong terminus accepted")
	}
	if pp.FeasiblePath([]int{1, 0, 3}) == nil {
		t.Error("wrong origin accepted")
	}
	if pp.FeasiblePath([]int{0, 1, 1, 3}) == nil {
		t.Error("duplicate accepted")
	}
	tight := *pp
	tight.Budget = 0.01
	if tight.FeasiblePath([]int{0, 1, 3}) == nil {
		t.Error("over budget accepted")
	}
}

// brutePath enumerates all simple Start→End paths (n ≤ 7).
func brutePath(p *PathProblem) float64 {
	best := math.Inf(-1)
	used := make([]bool, p.N)
	var rec func(order []int, cost, reward float64)
	rec = func(order []int, cost, reward float64) {
		last := order[len(order)-1]
		if last == p.End && cost <= p.Budget+1e-9 && reward > best {
			best = reward
		}
		for v := 0; v < p.N; v++ {
			if used[v] {
				continue
			}
			nc := cost + p.Cost(last, v)
			if nc > p.Budget+1e-9 {
				continue
			}
			used[v] = true
			r := reward + p.Reward(v)
			rec(append(order, v), nc, r)
			used[v] = false
		}
	}
	used[p.Start] = true
	rec([]int{p.Start}, 0, p.Reward(p.Start))
	return best
}

func TestExactPathDPVsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []float64{80, 150, 300} {
			p, _ := randomProblem(6, budget, 50+seed)
			pp := pathFromProblem(p, 4)
			want := brutePath(pp)
			sol, err := ExactPathDP(pp)
			if math.IsInf(want, -1) {
				if err == nil {
					t.Errorf("seed=%d budget=%v: infeasible instance solved", seed, budget)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed=%d budget=%v: %v", seed, budget, err)
			}
			if err := pp.FeasiblePath(sol.Order); err != nil {
				t.Fatalf("seed=%d budget=%v: %v (order %v)", seed, budget, err, sol.Order)
			}
			if math.Abs(sol.Reward-want) > 1e-9 {
				t.Errorf("seed=%d budget=%v: DP %v, brute %v", seed, budget, sol.Reward, want)
			}
		}
	}
}

// TestDummyDepotEquivalence is the fidelity check for Algorithm 1's
// formulation: solving the d→d′ path problem on the dummy-depot graph
// yields exactly the optimal closed-tour reward of the cycle formulation.
func TestDummyDepotEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []float64{100, 200, 350} {
			p, _ := randomProblem(7, budget, 80+seed)
			cycle, err := ExactDP(p)
			if err != nil {
				t.Fatal(err)
			}
			path, err := ExactPathDP(DummyDepot(p))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cycle.Reward-path.Reward) > 1e-9 {
				t.Errorf("seed=%d budget=%v: cycle %v != dummy-depot path %v", seed, budget, cycle.Reward, path.Reward)
			}
		}
	}
}

func TestExactPathDPStartEqualsEnd(t *testing.T) {
	p, _ := randomProblem(7, 250, 5)
	pp := pathFromProblem(p, p.Depot)
	sol, err := ExactPathDP(pp)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := ExactDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Reward-cyc.Reward) > 1e-9 {
		t.Errorf("start=end path %v != cycle %v", sol.Reward, cyc.Reward)
	}
}

func TestExactPathDPInfeasible(t *testing.T) {
	p, _ := randomProblem(5, 0.0001, 9)
	pp := pathFromProblem(p, 3)
	if _, err := ExactPathDP(pp); err == nil {
		t.Error("impossible endpoint pair accepted")
	}
}

func TestGreedyPathFeasibleAndBounded(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p, _ := randomProblem(10, 200, 120+seed)
		pp := pathFromProblem(p, 7)
		sol, err := GreedyPath(pp)
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.FeasiblePath(sol.Order); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		opt, err := ExactPathDP(pp)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Reward > opt.Reward+1e-9 {
			t.Fatalf("seed=%d: greedy %v beat optimum %v", seed, sol.Reward, opt.Reward)
		}
		if sol.Reward < opt.Reward/3 {
			t.Errorf("seed=%d: greedy %v below opt/3 (%v)", seed, sol.Reward, opt.Reward/3)
		}
	}
}

func TestGreedyPathInfeasibleEndpoints(t *testing.T) {
	p, _ := randomProblem(5, 0.001, 3)
	pp := pathFromProblem(p, 2)
	if _, err := GreedyPath(pp); err == nil {
		t.Error("unreachable end accepted")
	}
}

// PathProblem is rooted point-to-point orienteering: find a simple path
// from Start to End maximising collected reward subject to the budget.
// Algorithm 1 of the paper is phrased in exactly this form — it duplicates
// the depot into a dummy d′ and asks for a best d→d′ path in the auxiliary
// graph, which is a closed tour of the original graph. The cycle solvers in
// this package are the d = d′ special case; this file provides the general
// form plus the dummy-depot reduction, and the tests prove the two
// formulations coincide.
type PathProblem struct {
	N      int
	Cost   tsp.Metric
	Reward func(i int) float64
	Budget float64
	Start  int
	End    int
}

// Validate reports whether the instance is well formed.
func (p *PathProblem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("orienteering: need at least one node, got %d", p.N)
	}
	if p.Start < 0 || p.Start >= p.N || p.End < 0 || p.End >= p.N {
		return fmt.Errorf("orienteering: endpoints %d,%d out of range [0,%d)", p.Start, p.End, p.N)
	}
	if p.Cost == nil || p.Reward == nil {
		return fmt.Errorf("orienteering: Cost and Reward must be non-nil")
	}
	if math.IsNaN(p.Budget) || p.Budget < 0 {
		return fmt.Errorf("orienteering: invalid budget %v", p.Budget)
	}
	return nil
}

// PathSolution is a feasible open path and its reward.
type PathSolution struct {
	// Order is the node sequence from Start to End inclusive.
	Order  []int
	Reward float64
	Cost   float64
}

// pathCost returns the open-path cost of order under m.
func pathCost(order []int, m tsp.Metric) float64 {
	var sum float64
	for i := 1; i < len(order); i++ {
		sum += m(order[i-1], order[i])
	}
	return sum
}

// FeasiblePath checks endpoint anchoring, distinct visits and the budget.
func (p *PathProblem) FeasiblePath(order []int) error {
	if len(order) == 0 || order[0] != p.Start || order[len(order)-1] != p.End {
		return fmt.Errorf("orienteering: path must run %d→%d", p.Start, p.End)
	}
	seen := map[int]bool{}
	for _, v := range order {
		if v < 0 || v >= p.N {
			return fmt.Errorf("orienteering: node %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("orienteering: node %d visited twice", v)
		}
		seen[v] = true
	}
	if c := pathCost(order, p.Cost); c > p.Budget+1e-9 {
		return fmt.Errorf("orienteering: path cost %v exceeds budget %v", c, p.Budget)
	}
	return nil
}

// ExactPathDP solves point-to-point orienteering optimally by the
// Held–Karp subset DP with a budget filter (N ≤ ExactMax). With
// Start == End it degenerates to the cycle solver's objective.
func ExactPathDP(p *PathProblem) (PathSolution, error) {
	if err := p.Validate(); err != nil {
		return PathSolution{}, err
	}
	if p.N > ExactMax {
		return PathSolution{}, fmt.Errorf("orienteering: exact solver limited to %d nodes, got %d", ExactMax, p.N)
	}
	if p.Start == p.End {
		// Delegate: a closed tour is the same object.
		rewards := make([]float64, p.N)
		for v := range rewards {
			rewards[v] = p.Reward(v)
		}
		sol, err := ExactDP(&Problem{Cost: tsp.NewMatrix(p.N, p.Cost), Reward: rewards, Budget: p.Budget, Depot: p.Start})
		if err != nil {
			return PathSolution{}, err
		}
		sol.Tour.RotateTo(p.Start)
		order := append(append([]int(nil), sol.Tour.Order...), p.Start)
		if len(order) == 2 { // depot-only cycle: keep the trivial path
			order = []int{p.Start}
			if p.Start != p.End {
				order = append(order, p.End)
			}
		}
		return PathSolution{Order: order, Reward: sol.Reward, Cost: sol.Cost}, nil
	}

	n := p.N
	size := 1 << n
	dp := make([][]float64, size)
	parent := make([][]int8, size)
	for mask := range dp {
		dp[mask] = make([]float64, n)
		parent[mask] = make([]int8, n)
		for j := range dp[mask] {
			dp[mask][j] = math.Inf(1)
			parent[mask][j] = -1
		}
	}
	startMask := 1 << p.Start
	dp[startMask][p.Start] = 0
	rewardOf := func(mask int) float64 {
		var r float64
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				r += p.Reward(v)
			}
		}
		return r
	}
	bestReward := math.Inf(-1)
	bestMask, bestEnd := 0, -1
	consider := func(mask, j int, extra float64) {
		if dp[mask][j]+extra <= p.Budget+1e-9 {
			full := mask
			if full&(1<<p.End) == 0 {
				full |= 1 << p.End
			}
			if r := rewardOf(full); r > bestReward+1e-12 {
				bestReward, bestMask, bestEnd = r, mask, j
			}
		}
	}
	for mask := startMask; mask < size; mask++ {
		if mask&startMask == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			cur := dp[mask][j]
			if math.IsInf(cur, 1) || mask&(1<<j) == 0 {
				continue
			}
			if j == p.End {
				consider(mask, j, 0)
			} else {
				consider(mask, j, p.Cost(j, p.End))
			}
			for nxt := 0; nxt < n; nxt++ {
				if mask&(1<<nxt) != 0 {
					continue
				}
				c := cur + p.Cost(j, nxt)
				if c > p.Budget {
					continue
				}
				nm := mask | 1<<nxt
				if c < dp[nm][nxt] {
					dp[nm][nxt] = c
					parent[nm][nxt] = int8(j)
				}
			}
		}
	}
	if bestEnd < 0 {
		// Even Start→End direct exceeds the budget; the only feasible
		// "path" is staying put, which the problem shape does not admit.
		return PathSolution{}, fmt.Errorf("orienteering: no %d→%d path fits budget %v", p.Start, p.End, p.Budget)
	}
	// Reconstruct.
	var rev []int
	mask, j := bestMask, bestEnd
	for j != -1 {
		rev = append(rev, j)
		pj := parent[mask][j]
		mask &^= 1 << j
		j = int(pj)
	}
	order := make([]int, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		order = append(order, rev[i])
	}
	if order[len(order)-1] != p.End {
		order = append(order, p.End)
	}
	return PathSolution{Order: order, Reward: bestReward, Cost: pathCost(order, p.Cost)}, nil
}

// GreedyPath builds a feasible Start→End path by best-ratio insertion,
// mirroring GreedyRatio for the open-path objective.
func GreedyPath(p *PathProblem) (PathSolution, error) {
	if err := p.Validate(); err != nil {
		return PathSolution{}, err
	}
	order := []int{p.Start}
	if p.End != p.Start {
		if p.Cost(p.Start, p.End) > p.Budget+1e-9 {
			return PathSolution{}, fmt.Errorf("orienteering: no %d→%d path fits budget %v", p.Start, p.End, p.Budget)
		}
		order = append(order, p.End)
	}
	in := make([]bool, p.N)
	for _, v := range order {
		in[v] = true
	}
	cost := pathCost(order, p.Cost)
	for {
		bestV, bestPos := -1, 0
		bestRatio, bestDelta := -1.0, 0.0
		for v := 0; v < p.N; v++ {
			if in[v] || p.Reward(v) <= 0 {
				continue
			}
			// Open-path insertion between consecutive positions; the
			// fixed endpoints are never displaced.
			for pos := 1; pos < len(order); pos++ {
				a, b := order[pos-1], order[pos]
				delta := p.Cost(a, v) + p.Cost(v, b) - p.Cost(a, b)
				if cost+delta > p.Budget+1e-12 {
					continue
				}
				ratio := math.Inf(1)
				if delta > 1e-12 {
					ratio = p.Reward(v) / delta
				}
				if ratio > bestRatio {
					bestV, bestPos, bestRatio, bestDelta = v, pos, ratio, delta
				}
			}
		}
		if bestV < 0 {
			break
		}
		order = append(order, 0)
		copy(order[bestPos+1:], order[bestPos:])
		order[bestPos] = bestV
		in[bestV] = true
		cost += bestDelta
	}
	var reward float64
	for _, v := range order {
		reward += p.Reward(v)
	}
	if p.Start == p.End && len(order) > 1 {
		reward -= p.Reward(p.Start) // counted once
	}
	return PathSolution{Order: order, Reward: reward, Cost: pathCost(order, p.Cost)}, nil
}

// DummyDepot converts a cycle problem rooted at depot into the paper's
// path form: node N is the dummy depot d′, a copy of the depot with zero
// reward whose distances mirror the depot's.
func DummyDepot(p *Problem) *PathProblem {
	d, m := p.Depot, p.metric()
	n := len(p.Reward)
	wrap := func(i int) int {
		if i == n {
			return d
		}
		return i
	}
	return &PathProblem{
		N: n + 1,
		Cost: func(i, j int) float64 {
			wi, wj := wrap(i), wrap(j)
			if wi == wj && i != j {
				return 0 // d and d′ coincide
			}
			return m(wi, wj)
		},
		Reward: func(i int) float64 {
			if i == n {
				return 0
			}
			return p.Reward[i]
		},
		Budget: p.Budget,
		Start:  d,
		End:    n,
	}
}
