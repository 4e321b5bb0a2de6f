package tsp

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
)

func euclid(pts []geom.Point) Metric {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func randPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

func allItems(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

// TestMatrixSymmetric: Symmetric accepts a Euclidean matrix and Eq. 9's
// weighted one, and rejects one that differs from its transpose by a
// metric that depends on direction or by one ulp in one entry.
func TestMatrixSymmetric(t *testing.T) {
	pts := randPts(71, 541)
	r := rand.New(rand.NewSource(3))
	if !NewMatrix(len(pts), euclid(pts)).Symmetric() {
		t.Error("euclid: not symmetric")
	}
	if !NewMatrix(len(pts), fieldMetric(pts, randHover(r, len(pts), 1000))).Symmetric() {
		t.Error("weighted: not symmetric")
	}
	directed := func(i, j int) float64 {
		return pts[i].Dist(pts[j])*(1+0.3*math.Abs(math.Sin(float64(3*i+7*j)))) + float64(5*(i%3)+2*(j%5))
	}
	if NewMatrix(len(pts), directed).Symmetric() {
		t.Error("a direction-dependent metric passed as symmetric")
	}
	x := NewMatrix(len(pts), euclid(pts))
	x.d[40*x.n+7] = math.Nextafter(x.d[40*x.n+7], math.Inf(1))
	if x.Symmetric() {
		t.Error("a matrix one ulp off in one entry passed as symmetric")
	}
}

func TestTourCost(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(3, 4)}
	m := euclid(pts)
	tour := Tour{Order: []int{0, 1, 2}}
	if c := tour.Cost(m); math.Abs(c-12) > 1e-12 {
		t.Errorf("Cost = %v, want 12", c)
	}
	if c := (Tour{Order: []int{0}}).Cost(m); c != 0 {
		t.Errorf("singleton cost = %v", c)
	}
	if c := (Tour{}).Cost(m); c != 0 {
		t.Errorf("empty cost = %v", c)
	}
	if c := (Tour{Order: []int{0, 2}}).Cost(m); math.Abs(c-10) > 1e-12 {
		t.Errorf("pair cost = %v, want 10 (there and back)", c)
	}
}

func TestTourHelpers(t *testing.T) {
	tour := Tour{Order: []int{5, 2, 9}}
	if !tour.Contains(2) || tour.Contains(3) {
		t.Error("Contains wrong")
	}
	if tour.IndexOf(9) != 2 || tour.IndexOf(1) != -1 {
		t.Error("IndexOf wrong")
	}
	c := tour.Clone()
	c.Order[0] = 7
	if tour.Order[0] != 5 {
		t.Error("Clone aliases storage")
	}
	tour.RotateTo(2)
	if tour.Order[0] != 2 || tour.Order[1] != 9 || tour.Order[2] != 5 {
		t.Errorf("RotateTo = %v", tour.Order)
	}
	tour.RotateTo(2) // no-op path
	if tour.Order[0] != 2 {
		t.Error("RotateTo self changed order")
	}
}

func TestRotateToMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tour := Tour{Order: []int{1, 2}}
	tour.RotateTo(3)
}

func TestValidate(t *testing.T) {
	tour := Tour{Order: []int{3, 1, 2}}
	if err := tour.Validate([]int{1, 2, 3}); err != nil {
		t.Errorf("valid tour rejected: %v", err)
	}
	if err := tour.Validate([]int{1, 2}); err == nil {
		t.Error("wrong cardinality accepted")
	}
	if err := tour.Validate([]int{1, 2, 4}); err == nil {
		t.Error("wrong items accepted")
	}
	if err := (Tour{Order: []int{1, 1, 2}}).Validate([]int{1, 1, 2}); err == nil {
		t.Error("duplicates accepted")
	}
}

func TestChristofidesSmallSizes(t *testing.T) {
	pts := randPts(5, 1)
	m := euclid(pts)
	for k := 0; k <= 2; k++ {
		tour, err := Christofides(allItems(k), m)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if tour.Len() != k {
			t.Errorf("k=%d: len %d", k, tour.Len())
		}
	}
}

func TestChristofidesDuplicateItems(t *testing.T) {
	pts := randPts(5, 1)
	if _, err := Christofides([]int{0, 1, 1}, euclid(pts)); err == nil {
		t.Error("duplicate items accepted")
	}
}

func TestChristofidesVsOptimal(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		for seed := int64(0); seed < 6; seed++ {
			pts := randPts(n, seed*17+int64(n))
			m := euclid(pts)
			items := allItems(n)
			tour, err := Christofides(items, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := tour.Validate(items); err != nil {
				t.Fatal(err)
			}
			_, opt, err := ExactHeldKarp(items, m)
			if err != nil {
				t.Fatal(err)
			}
			got := tour.Cost(m)
			if got < opt-1e-6 {
				t.Fatalf("n=%d seed=%d: christofides %v beat optimum %v", n, seed, got, opt)
			}
			if got > 1.5*opt+1e-6 {
				t.Errorf("n=%d seed=%d: christofides %v exceeds 1.5×opt %v", n, seed, got, 1.5*opt)
			}
		}
	}
}

func TestChristofidesBoundsLargerInstances(t *testing.T) {
	// No exact oracle at n=80; sandwich between the MST lower bound and
	// 2× MST (the double-tree bound that Christofides always beats).
	for seed := int64(0); seed < 4; seed++ {
		pts := randPts(80, seed)
		m := euclid(pts)
		items := allItems(80)
		tour, err := Christofides(items, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := tour.Validate(items); err != nil {
			t.Fatal(err)
		}
		mst, err := MSTLowerBound(items, m)
		if err != nil {
			t.Fatal(err)
		}
		c := tour.Cost(m)
		if c < mst-1e-6 {
			t.Errorf("tour %v below MST bound %v", c, mst)
		}
		if c > 2*mst+1e-6 {
			t.Errorf("tour %v above double-tree bound %v", c, 2*mst)
		}
	}
}

func TestNearestNeighborAndInsertion(t *testing.T) {
	pts := randPts(30, 3)
	m := euclid(pts)
	items := allItems(30)
	nn := NearestNeighbor(items, m)
	if err := nn.Validate(items); err != nil {
		t.Fatal(err)
	}
	ci := CheapestInsertion(items, m)
	if err := ci.Validate(items); err != nil {
		t.Fatal(err)
	}
	mst, _ := MSTLowerBound(items, m)
	if nn.Cost(m) < mst || ci.Cost(m) < mst {
		t.Error("construction beat the MST lower bound — cost accounting broken")
	}
	if NearestNeighbor(nil, m).Len() != 0 || CheapestInsertion(nil, m).Len() != 0 {
		t.Error("empty construction should be empty")
	}
}

func TestBestInsertionAndInsertConsistent(t *testing.T) {
	pts := randPts(15, 9)
	m := euclid(pts)
	tour := CheapestInsertion(allItems(10), m)
	base := tour.Cost(m)
	for v := 10; v < 15; v++ {
		pos, delta := BestInsertion(tour, v, m)
		grown := Insert(tour, v, pos)
		if math.Abs(grown.Cost(m)-(base+delta)) > 1e-9 {
			t.Fatalf("insert %d: predicted %v, actual %v", v, base+delta, grown.Cost(m))
		}
		// The predicted delta must be minimal over all positions.
		for p := 0; p <= tour.Len(); p++ {
			alt := Insert(tour, v, p)
			if alt.Cost(m) < base+delta-1e-9 {
				t.Fatalf("position %d better than BestInsertion for item %d", p, v)
			}
		}
	}
}

func TestBestInsertionDegenerate(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	m := euclid(pts)
	pos, delta := BestInsertion(Tour{}, 0, m)
	if pos != 0 || delta != 0 {
		t.Errorf("empty: %d %v", pos, delta)
	}
	pos, delta = BestInsertion(Tour{Order: []int{0}}, 1, m)
	if pos != 1 || math.Abs(delta-10) > 1e-12 {
		t.Errorf("singleton: %d %v", pos, delta)
	}
}

func TestInsertOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Insert(Tour{Order: []int{1}}, 2, 5)
}

func TestRemove(t *testing.T) {
	pts := randPts(10, 4)
	m := euclid(pts)
	tour := CheapestInsertion(allItems(10), m)
	base := tour.Cost(m)
	for _, v := range []int{0, 4, 9} {
		smaller, delta := Remove(tour, v, m)
		if smaller.Contains(v) {
			t.Fatalf("item %d still present", v)
		}
		if math.Abs(smaller.Cost(m)-(base-delta)) > 1e-9 {
			t.Fatalf("remove %d: predicted %v, actual %v", v, base-delta, smaller.Cost(m))
		}
	}
	same, delta := Remove(tour, 99, m)
	if delta != 0 || same.Len() != tour.Len() {
		t.Error("removing absent item should be a no-op")
	}
	pair := Tour{Order: []int{0, 1}}
	single, delta := Remove(pair, 1, m)
	if single.Len() != 1 || math.Abs(delta-2*m(0, 1)) > 1e-12 {
		t.Errorf("pair removal: len=%d delta=%v", single.Len(), delta)
	}
}

// TestRemovalDelta checks the delta at every position of a tour against
// the cost of the tour without that item, and the one- and two-item cases.
func TestRemovalDelta(t *testing.T) {
	pts := randPts(10, 5)
	m := euclid(pts)
	tour := CheapestInsertion(allItems(10), m)
	base := tour.Cost(m)
	for i, v := range tour.Order {
		smaller, want := Remove(tour, v, m)
		got := RemovalDelta(tour, i, m)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("position %d: delta %v, Remove reports %v", i, got, want)
		}
		if math.Abs(smaller.Cost(m)-(base-got)) > 1e-9 {
			t.Fatalf("position %d: predicted %v, actual %v", i, base-got, smaller.Cost(m))
		}
	}
	if d := RemovalDelta(Tour{Order: []int{3, 7}}, 1, m); d != 2*m(3, 7) {
		t.Errorf("two-item delta %v, want %v", d, 2*m(3, 7))
	}
	if d := RemovalDelta(Tour{Order: []int{3}}, 0, m); d != 0 {
		t.Errorf("one-item delta %v, want 0", d)
	}
}

func TestTwoOptImproves(t *testing.T) {
	pts := randPts(40, 8)
	m := euclid(pts)
	items := allItems(40)
	tour := NearestNeighbor(items, m)
	before := tour.Cost(m)
	saved, _ := twoOpt(&tour, NewMatrix(40, m), 0, obs.Discard)
	after := tour.Cost(m)
	if err := tour.Validate(items); err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-saved-after) > 1e-6 {
		t.Errorf("claimed saving %v, actual %v", saved, before-after)
	}
	if after > before+1e-9 {
		t.Error("2-opt made tour worse")
	}
	// After 2-opt, no improving 2-exchange may remain.
	if extra, _ := twoOpt(&tour, NewMatrix(40, m), 0, obs.Discard); extra > 1e-9 {
		t.Errorf("second 2-opt still saved %v", extra)
	}
}

func TestOrOptImproves(t *testing.T) {
	pts := randPts(30, 12)
	m := euclid(pts)
	items := allItems(30)
	tour := NearestNeighbor(items, m)
	before := tour.Cost(m)
	saved, _ := orOpt(&tour, NewMatrix(30, m), 0, obs.Discard)
	after := tour.Cost(m)
	if err := tour.Validate(items); err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-saved-after) > 1e-6 {
		t.Errorf("claimed saving %v, actual %v", saved, before-after)
	}
}

func TestImproveCombined(t *testing.T) {
	pts := randPts(50, 20)
	m := euclid(pts)
	items := allItems(50)
	tour := NearestNeighbor(items, m)
	before := tour.Cost(m)
	Improve(&tour, NewMatrix(50, m))
	if err := tour.Validate(items); err != nil {
		t.Fatal(err)
	}
	if tour.Cost(m) > before+1e-9 {
		t.Error("Improve made tour worse")
	}
	tiny := Tour{Order: []int{0, 1, 2}}
	if Improve(&tiny, NewMatrix(50, m)) != 0 {
		t.Error("Improve on triangle should be a no-op")
	}
}

func TestHeldKarpKnown(t *testing.T) {
	// Unit square: optimal tour is the perimeter, cost 4.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	m := euclid(pts)
	tour, c, err := ExactHeldKarp(allItems(4), m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-4) > 1e-9 {
		t.Errorf("optimal cost = %v, want 4", c)
	}
	if math.Abs(tour.Cost(m)-c) > 1e-9 {
		t.Error("reconstructed tour cost disagrees with DP value")
	}
}

func TestHeldKarpDegenerate(t *testing.T) {
	pts := randPts(3, 2)
	m := euclid(pts)
	if _, c, err := ExactHeldKarp(nil, m); err != nil || c != 0 {
		t.Error("empty should be free")
	}
	if _, c, err := ExactHeldKarp([]int{1}, m); err != nil || c != 0 {
		t.Error("singleton should be free")
	}
	if _, c, err := ExactHeldKarp([]int{0, 2}, m); err != nil || math.Abs(c-2*m(0, 2)) > 1e-12 {
		t.Error("pair should be the round trip")
	}
	if _, _, err := ExactHeldKarp(allItems(HeldKarpMax+1), m); err == nil {
		t.Error("oversized input accepted")
	}
}

func TestHeldKarpIsLowerBoundForHeuristics(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pts := randPts(9, 100+seed)
		m := euclid(pts)
		items := allItems(9)
		_, opt, err := ExactHeldKarp(items, m)
		if err != nil {
			t.Fatal(err)
		}
		heuristics := map[string]Tour{
			"nn": NearestNeighbor(items, m),
			"ci": CheapestInsertion(items, m),
		}
		for _, name := range slices.Sorted(maps.Keys(heuristics)) {
			tour := heuristics[name]
			if tour.Cost(m) < opt-1e-6 {
				t.Errorf("seed %d: %s beat the optimum: %v < %v", seed, name, tour.Cost(m), opt)
			}
		}
	}
}

func BenchmarkChristofides100(b *testing.B) {
	pts := randPts(100, 5)
	m := euclid(pts)
	items := allItems(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Christofides(items, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChristofidesPaperScale measures one Christofides construction
// over 501 uniform points, the baseline's tour at the paper's setting.
func BenchmarkChristofidesPaperScale(b *testing.B) {
	pts := randPts(501, 1)
	m := NewMatrix(len(pts), euclid(pts)).Metric()
	items := allItems(len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Christofides(items, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoOpt100(b *testing.B) {
	pts := randPts(100, 5)
	m := euclid(pts)
	items := allItems(100)
	x := NewMatrix(100, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tour := NearestNeighbor(items, m)
		twoOpt(&tour, x, 0, obs.Discard)
	}
}
