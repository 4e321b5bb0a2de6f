package orienteering

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/tsp"
)

// randomProblem builds a Euclidean instance with uniform random rewards.
func randomProblem(n int, budget float64, seed int64) (*Problem, []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	rewards := make([]float64, n)
	for i := 1; i < n; i++ {
		rewards[i] = 1 + rng.Float64()*9
	}
	return problemOf(func(i, j int) float64 { return pts[i].Dist(pts[j]) }, rewards, budget), pts
}

// problemOf builds a Problem rooted at node 0 whose cost matrix holds m
// over the nodes of rewards.
func problemOf(m tsp.Metric, rewards []float64, budget float64) *Problem {
	return &Problem{Cost: tsp.NewMatrix(len(rewards), m), Reward: rewards, Budget: budget}
}

func TestValidate(t *testing.T) {
	p, _ := randomProblem(5, 100, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Reward = nil
	if bad.Validate() == nil {
		t.Error("zero nodes accepted")
	}
	bad = *p
	bad.Depot = 5
	if bad.Validate() == nil {
		t.Error("depot out of range accepted")
	}
	bad = *p
	bad.Budget = -1
	if bad.Validate() == nil {
		t.Error("negative budget accepted")
	}
	bad = *p
	bad.Cost = nil
	if bad.Validate() == nil {
		t.Error("nil cost accepted")
	}
	bad = *p
	bad.Cost = tsp.NewMatrix(4, p.metric())
	if bad.Validate() == nil {
		t.Error("cost matrix over too few nodes accepted")
	}
	bad = *p
	m := p.metric()
	bad.Cost = tsp.NewMatrix(5, func(i, j int) float64 { return m(i, j) + float64(i) })
	if bad.Validate() == nil {
		t.Error("asymmetric cost matrix accepted")
	}
}

func TestFeasible(t *testing.T) {
	p, _ := randomProblem(6, 1000, 2)
	good := tsp.Tour{Order: []int{0, 1, 2}}
	if err := p.Feasible(good); err != nil {
		t.Errorf("feasible tour rejected: %v", err)
	}
	if p.Feasible(tsp.Tour{Order: []int{1, 2}}) == nil {
		t.Error("tour missing depot accepted")
	}
	if p.Feasible(tsp.Tour{Order: []int{0, 1, 1}}) == nil {
		t.Error("duplicate visit accepted")
	}
	if p.Feasible(tsp.Tour{Order: []int{0, 7}}) == nil {
		t.Error("out-of-range node accepted")
	}
	tight := *p
	tight.Budget = 0.1
	if tight.Feasible(good) == nil {
		t.Error("over-budget tour accepted")
	}
}

func TestExactDPDegenerate(t *testing.T) {
	p, _ := randomProblem(1, 10, 3)
	sol, err := ExactDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reward != 0 || sol.Tour.Len() != 1 {
		t.Errorf("depot-only expected, got %+v", sol)
	}
	// Zero budget: must stay at depot.
	p2, _ := randomProblem(8, 0, 4)
	sol, err = ExactDP(p2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tour.Len() != 1 || sol.Cost != 0 {
		t.Errorf("zero budget must give depot-only, got %+v", sol)
	}
	// Too large.
	p3, _ := randomProblem(ExactMax+1, 10, 5)
	if _, err := ExactDP(p3); err == nil {
		t.Error("oversize instance accepted")
	}
}

func TestExactDPHugeBudgetTakesAll(t *testing.T) {
	p, _ := randomProblem(9, 1e9, 6)
	sol, err := ExactDP(p)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, r := range p.Reward {
		want += r
	}
	if math.Abs(sol.Reward-want) > 1e-9 {
		t.Errorf("huge budget reward %v, want all %v", sol.Reward, want)
	}
	if err := p.Feasible(sol.Tour); err != nil {
		t.Error(err)
	}
}

// bruteForce enumerates all subsets and permutations (n ≤ 8) for a true
// optimum independent of the DP.
func bruteForce(p *Problem) float64 {
	n := len(p.Reward)
	best := 0.0
	var rec func(order []int, used []bool)
	rec = func(order []int, used []bool) {
		t := tsp.Tour{Order: order}
		if t.Cost(p.metric()) <= p.Budget+1e-9 {
			if r := p.TotalReward(t); r > best {
				best = r
			}
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				rec(append(order, v), used)
				used[v] = false
			}
		}
	}
	used := make([]bool, n)
	used[p.Depot] = true
	rec([]int{p.Depot}, used)
	return best
}

func TestExactDPVsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, budget := range []float64{50, 120, 250, 400} {
			p, _ := randomProblem(6, budget, seed*7+11)
			sol, err := ExactDP(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Feasible(sol.Tour); err != nil {
				t.Fatalf("seed=%d budget=%v: %v", seed, budget, err)
			}
			want := bruteForce(p)
			if math.Abs(sol.Reward-want) > 1e-9 {
				t.Errorf("seed=%d budget=%v: DP %v, brute %v", seed, budget, sol.Reward, want)
			}
		}
	}
}

// heuristic is one of Solve's two construction arms.
type heuristic struct {
	name  string
	build func(*Problem) (Solution, error)
}

// heuristics are the arms Solve runs above ExactMax nodes.
var heuristics = []heuristic{{"greedy", GreedyRatio}, {"toursplit", TourSplit}}

// solve runs h and refines its tour by local search, as Solve does.
func (h heuristic) solve(p *Problem) (Solution, error) {
	sol, err := h.build(p)
	if err != nil {
		return Solution{}, err
	}
	return LocalSearch(p, sol), nil
}

func TestHeuristicsFeasibleAndBounded(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []float64{60, 150, 300} {
			p, _ := randomProblem(10, budget, 100+seed)
			opt, err := ExactDP(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range heuristics {
				sol, err := method.solve(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Feasible(sol.Tour); err != nil {
					t.Fatalf("%s seed=%d budget=%v: %v", method.name, seed, budget, err)
				}
				if sol.Reward > opt.Reward+1e-9 {
					t.Fatalf("%s beat the optimum: %v > %v", method.name, sol.Reward, opt.Reward)
				}
				// Quality floor: the cited algorithm is a 3-approximation;
				// our heuristics should do at least that well on these
				// small Euclidean instances.
				if sol.Reward < opt.Reward/3-1e-9 {
					t.Errorf("%s seed=%d budget=%v: reward %v below opt/3 (%v)", method.name, seed, budget, sol.Reward, opt.Reward/3)
				}
			}
		}
	}
}

func TestSolveAutoUsesExactWhenSmall(t *testing.T) {
	p, _ := randomProblem(8, 200, 42)
	auto, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactDP(p)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Reward != exact.Reward {
		t.Errorf("auto %v != exact %v", auto.Reward, exact.Reward)
	}
}

func TestSolveAutoLarge(t *testing.T) {
	p, _ := randomProblem(60, 300, 9)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(sol.Tour); err != nil {
		t.Fatal(err)
	}
	if sol.Reward <= 0 {
		t.Error("large instance with generous budget should collect something")
	}
}

// TestCostReplacedRepolishes: a Problem whose Cost is replaced after a
// solve polishes on the new matrix, not on the one its earlier polish
// replayed from.
func TestCostReplacedRepolishes(t *testing.T) {
	p, _ := randomProblem(60, 300, 71)
	if _, err := Solve(p); err != nil {
		t.Fatal(err)
	}
	q, _ := randomProblem(60, 300, 72)
	want, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Cost, p.Reward = tsp.NewMatrix(len(q.Reward), q.metric()), q.Reward
	got, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Tour.Order, want.Tour.Order) || got.Reward != want.Reward || got.Cost != want.Cost {
		t.Fatalf("after replacing Cost: %+v, fresh problem %+v", got, want)
	}
}

func TestTourSplitFullBudgetTakesEverything(t *testing.T) {
	p, _ := randomProblem(25, 1e9, 77)
	sol, err := TourSplit(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tour.Len() != len(p.Reward) {
		t.Errorf("with unlimited budget tour should include all %d nodes, got %d", len(p.Reward), sol.Tour.Len())
	}
}

func TestTourSplitZeroRewards(t *testing.T) {
	p, _ := randomProblem(10, 100, 5)
	zero := *p
	zero.Reward = make([]float64, len(p.Reward))
	sol, err := TourSplit(&zero)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tour.Len() != 1 || sol.Reward != 0 {
		t.Errorf("all-zero rewards should give depot-only, got %+v", sol)
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p, _ := randomProblem(30, 200, 200+seed)
		start, err := GreedyRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		out := LocalSearch(p, start)
		if out.Reward < start.Reward-1e-9 {
			t.Errorf("seed %d: local search lowered reward %v → %v", seed, start.Reward, out.Reward)
		}
		if err := p.Feasible(out.Tour); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestLocalSearchDropRefill builds an instance where the starting tour
// holds one low-reward node whose round trip eats the whole budget; the
// drop+refill move must evict it in favour of a cluster of high-reward
// nodes on the other side.
func TestLocalSearchDropRefill(t *testing.T) {
	// Node 0: depot at origin. Node 1: reward 1 at (50, 0).
	// Nodes 2-4: reward 10 each, clustered near (-30, 0).
	pts := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(50, 0),
		geom.Pt(-30, 0),
		geom.Pt(-31, 0),
		geom.Pt(-32, 0),
	}
	rewards := []float64{0, 1, 10, 10, 10}
	// The budget fits depot→1→depot (100) or depot→cluster→depot (~64),
	// not both.
	p := problemOf(func(i, j int) float64 { return pts[i].Dist(pts[j]) }, rewards, 100)
	start := p.solutionFor(tsp.Tour{Order: []int{0, 1}})
	if err := p.Feasible(start.Tour); err != nil {
		t.Fatal(err)
	}
	out := LocalSearch(p, start)
	if out.Reward < 30 {
		t.Errorf("drop+refill should reach the cluster: reward %v, tour %v", out.Reward, out.Tour.Order)
	}
	if err := p.Feasible(out.Tour); err != nil {
		t.Error(err)
	}
}

func TestGreedyRatioRespectsTightBudget(t *testing.T) {
	p, pts := randomProblem(20, 0, 31)
	sol, err := GreedyRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tour.Len() != 1 {
		t.Errorf("zero budget: tour %v", sol.Tour.Order)
	}
	// Budget exactly one round trip to the nearest node.
	nearest, d := -1, math.Inf(1)
	for i := 1; i < len(p.Reward); i++ {
		if dd := pts[0].Dist(pts[i]); dd < d {
			nearest, d = i, dd
		}
	}
	p.Budget = 2 * d
	sol, err = GreedyRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(sol.Tour); err != nil {
		t.Fatal(err)
	}
	if sol.Tour.Len() > 2 {
		t.Errorf("budget for one node, visited %d", sol.Tour.Len()-1)
	}
	_ = nearest
}

// TestAdditionTieFavoursReward holds every addition scan to GreedyRatio's
// tie rule. On a line through the depot, node 1 (x = 1, reward 2) and
// node 2 (x = −2, reward 4) cost 2 and 4 to add to the depot-only tour:
// the same ratio, 1. Taking node 2 leaves room in the budget of 6 for
// node 4 (x = −3, reward 3), reward 7. Taking node 1 first leads
// greedyFill (which excludes node 3) to nodes 1 and 2, reward 6, and
// LocalSearch to nodes 1 and 3 (x = 3, reward 4.5), reward 6.5, which
// none of its moves leaves.
func TestAdditionTieFavoursReward(t *testing.T) {
	xs := []float64{0, 1, -2, 3, -3}
	rewards := []float64{0, 2, 4, 4.5, 3}
	p := problemOf(func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }, rewards, 6)
	want := []int{0, 2, 4}
	for _, c := range []struct {
		name  string
		solve func() Solution
	}{
		{"GreedyRatio", func() Solution { s, _ := GreedyRatio(p); return s }},
		{"greedyFill", func() Solution { return greedyFill(p, p.depotOnly(), 3) }},
		{"LocalSearch", func() Solution { return LocalSearch(p, p.depotOnly()) }},
	} {
		sol := c.solve()
		got := slices.Sorted(slices.Values(sol.Tour.Order))
		if !slices.Equal(got, want) || sol.Reward != 7 {
			t.Errorf("%s: nodes %v, reward %v; want %v, reward 7", c.name, got, sol.Reward, want)
		}
	}
}

func BenchmarkSolveAuto60(b *testing.B) {
	p, _ := randomProblem(60, 300, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUpperBoundDominatesAllSolvers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, budget := range []float64{60, 150, 400} {
			p, _ := randomProblem(10, budget, 300+seed)
			ub := UpperBound(p)
			opt, err := ExactDP(p)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Reward > ub+1e-9 {
				t.Fatalf("seed=%d budget=%v: optimum %v above upper bound %v", seed, budget, opt.Reward, ub)
			}
			for _, m := range heuristics {
				sol, err := m.solve(p)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Reward > ub+1e-9 {
					t.Fatalf("%s beat the upper bound", m.name)
				}
			}
		}
	}
}

func TestUpperBoundTightWhenBudgetHuge(t *testing.T) {
	p, _ := randomProblem(12, 1e9, 5)
	var all float64
	for _, r := range p.Reward {
		all += r
	}
	if ub := UpperBound(p); ub != all {
		t.Errorf("huge budget bound %v, want %v", ub, all)
	}
	bad := *p
	bad.Reward = nil
	if UpperBound(&bad) != 0 {
		t.Error("invalid instance should bound to 0")
	}
}

// UpperBound returns a combinatorial upper bound on the optimal reward of
// the instance: any closed tour visiting node v costs at least the round
// trip 2·Cost(depot, v) (triangle inequality), so no node whose round trip
// exceeds the budget can ever be collected, and the sum of the rewards of
// all remaining nodes bounds every feasible tour from above.
//
// The bound is loose on tight budgets but certifiable; tests use it to
// sandwich the heuristics.
func UpperBound(p *Problem) float64 {
	if p.Validate() != nil {
		return 0
	}
	m := p.metric()
	var sum float64
	for v, r := range p.Reward {
		if v == p.Depot {
			continue
		}
		if 2*m(p.Depot, v) <= p.Budget+1e-9 {
			if r > 0 {
				sum += r
			}
		}
	}
	return sum
}
