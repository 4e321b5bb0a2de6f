package tsp

import (
	"math"
	"slices"
	"testing"

	"uavdc/internal/obs"
)

func TestOneTreeBoundDegenerate(t *testing.T) {
	pts := randPts(3, 1)
	m := euclid(pts)
	if lb, err := OneTreeBound(nil, m, 0); err != nil || lb != 0 {
		t.Errorf("empty: %v %v", lb, err)
	}
	if lb, err := OneTreeBound([]int{0}, m, 0); err != nil || lb != 0 {
		t.Errorf("single: %v %v", lb, err)
	}
	lb, err := OneTreeBound([]int{0, 1}, m, 0)
	if err != nil || math.Abs(lb-2*m(0, 1)) > 1e-12 {
		t.Errorf("pair: %v %v", lb, err)
	}
}

// TestOneTreeBoundSandwich: MST ≤ 1-tree bound ≤ optimum, on instances
// small enough for Held–Karp DP.
func TestOneTreeBoundSandwich(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 8 + int(seed)%5
		pts := randPts(n, 700+seed)
		m := euclid(pts)
		items := allItems(n)
		_, opt, err := ExactHeldKarp(items, m)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := MSTLowerBound(items, m)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := OneTreeBound(items, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt+1e-6 {
			t.Fatalf("seed %d: bound %v above optimum %v", seed, lb, opt)
		}
		if lb < mst-1e-6 {
			t.Fatalf("seed %d: bound %v below MST %v — ascent lost ground", seed, lb, mst)
		}
		// The ascent should close most of the MST↔OPT gap.
		if opt > mst && (lb-mst)/(opt-mst) < 0.5 {
			t.Errorf("seed %d: bound closed only %.0f%% of the gap (mst %v, lb %v, opt %v)",
				seed, 100*(lb-mst)/(opt-mst), mst, lb, opt)
		}
	}
}

// TestOneTreeBoundCertifiesChristofides: on larger instances without an
// exact oracle, Christofides+Improve must land within 1.5× of the 1-tree
// bound (it is guaranteed within 1.5× of OPT ≥ bound).
func TestOneTreeBoundCertifiesChristofides(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		pts := randPts(60, 900+seed)
		m := euclid(pts)
		items := allItems(60)
		tour, err := Christofides(items, m)
		if err != nil {
			t.Fatal(err)
		}
		Improve(&tour, NewMatrix(60, m))
		lb, err := OneTreeBound(items, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := tour.Cost(m)
		if c < lb-1e-6 {
			t.Fatalf("seed %d: tour %v below the lower bound %v", seed, c, lb)
		}
		if c > 1.5*lb {
			t.Errorf("seed %d: tour %v above 1.5× bound %v", seed, c, 1.5*lb)
		}
		// Polished tours on random Euclidean instances sit within ~5% of
		// the bound; allow 10% before complaining.
		if c > 1.10*lb {
			t.Errorf("seed %d: tour %v more than 10%% above bound %v", seed, c, lb)
		}
	}
}

// OneTreeBound computes the Held–Karp 1-tree lower bound on the optimal
// tour cost over items: the maximum over node potentials π of
// (min 1-tree weight under w(i,j)+π_i+π_j) − 2·Σπ, approached by
// subgradient ascent. It dominates the plain MST bound and typically
// reaches 98–99% of the optimum on Euclidean instances, which makes it the
// sharp yardstick tests use to certify heuristic tour quality without an
// exponential oracle. iterations ≤ 0 selects a sensible default.
func OneTreeBound(items []int, m Metric, iterations int) (float64, error) {
	k := len(items)
	if k < 3 {
		if k == 2 {
			return 2 * m(items[0], items[1]), nil
		}
		return 0, nil
	}
	if iterations <= 0 {
		iterations = 60
	}
	pi := make([]float64, k)
	adjusted := func(i, j int) float64 {
		return m(items[i], items[j]) + pi[i] + pi[j]
	}
	// Classical Polyak step: t = α·(UB − L(π)) / ‖deg−2‖², with a cheap
	// heuristic tour as the upper bound and α halved after stretches
	// without progress.
	ubTour := NearestNeighbor(items, m)
	twoOpt(&ubTour, NewMatrix(slices.Max(items)+1, m), 2, obs.Discard)
	ub := ubTour.Cost(m)

	best := math.Inf(-1)
	alpha := 2.0
	sinceImproved := 0
	for iter := 0; iter < iterations; iter++ {
		weight, deg, ok := minOneTree(k, adjusted)
		if !ok {
			return 0, errDisconnected
		}
		var piSum float64
		for _, p := range pi {
			piSum += p
		}
		lb := weight - 2*piSum
		if lb > best {
			best = lb
			sinceImproved = 0
		} else {
			sinceImproved++
			if sinceImproved >= 5 {
				alpha /= 2
				sinceImproved = 0
			}
		}
		var norm float64
		for i := 0; i < k; i++ {
			d := float64(deg[i] - 2)
			norm += d * d
		}
		if norm == 0 {
			break // the 1-tree is a tour: the bound is tight
		}
		gap := ub - lb
		if gap <= 0 {
			break // bound met the heuristic tour: cannot certify further
		}
		step := alpha * gap / norm
		for i := 0; i < k; i++ {
			pi[i] += step * float64(deg[i]-2)
		}
	}
	return best, nil
}

var errDisconnected = errDisc{}

type errDisc struct{}

func (errDisc) Error() string { return "tsp: metric yields disconnected graph" }

// minOneTree returns the weight and degree sequence of a minimum 1-tree:
// an MST over nodes 1..k-1 plus node 0 connected by its two cheapest
// edges. A local Prim is used because the potential-adjusted weights may
// be negative, which the shared graph package (built for energy costs)
// rejects by design.
func minOneTree(k int, w func(i, j int) float64) (float64, []int, bool) {
	deg := make([]int, k)
	inTree := make([]bool, k)
	bestW := make([]float64, k)
	bestTo := make([]int, k)
	for i := 1; i < k; i++ {
		bestW[i] = math.Inf(1)
		bestTo[i] = -1
	}
	bestW[1] = 0
	var weight float64
	for iter := 1; iter < k; iter++ {
		sel := -1
		for i := 1; i < k; i++ {
			if !inTree[i] && (sel < 0 || bestW[i] < bestW[sel]) {
				sel = i
			}
		}
		if sel < 0 || math.IsInf(bestW[sel], 1) {
			return 0, nil, false
		}
		inTree[sel] = true
		if bestTo[sel] >= 0 {
			weight += bestW[sel]
			deg[sel]++
			deg[bestTo[sel]]++
		}
		for i := 1; i < k; i++ {
			if !inTree[i] {
				if c := w(sel, i); c < bestW[i] {
					bestW[i] = c
					bestTo[i] = sel
				}
			}
		}
	}
	// Two cheapest edges incident to node 0.
	best1, best2 := math.Inf(1), math.Inf(1)
	i1, i2 := -1, -1
	for j := 1; j < k; j++ {
		c := w(0, j)
		switch {
		case c < best1:
			best2, i2 = best1, i1
			best1, i1 = c, j
		case c < best2:
			best2, i2 = c, j
		}
	}
	weight += best1 + best2
	deg[0] = 2
	deg[i1]++
	deg[i2]++
	return weight, deg, true
}
