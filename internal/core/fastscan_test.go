package core

import (
	"math"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/rng"
	"uavdc/internal/tsp"
)

// pointSet wraps points as a hover set, so set.Dist is the metric the
// greedy state prices with.
func pointSet(pts []geom.Point) *hover.Set {
	set := &hover.Set{}
	for _, p := range pts {
		set.Locs = append(set.Locs, hover.Location{Pos: p})
	}
	return set
}

// cheapest is one unmemoized pricing: the cheapest slot for a stop at p
// and its length delta.
func (sc *insertionScratch) cheapest(p geom.Point) (pos int, delta float64) {
	return sc.slot(sc.scan(p))
}

// TestCheapestMatchesTourInsertion: on a closed tour, the scratch's one
// insertion loop returns tsp.BestInsertion's position and delta bit for
// bit — including the 1-stop tour, which tsp prices as 2·d, and tours
// with coincident stops, where zero-length edges and ties occur.
func TestCheapestMatchesTourInsertion(t *testing.T) {
	r := rng.New(7).Rand()
	random := make([]geom.Point, 12)
	for i := range random {
		random[i] = geom.Pt(r.Float64()*300-150, r.Float64()*300-150)
	}
	a, b := geom.Pt(10, -20), geom.Pt(-35.5, 4.25)
	tours := []struct {
		name  string
		stops []geom.Point
	}{
		{"one", []geom.Point{a}},
		{"two", []geom.Point{a, b}},
		{"two-coincident", []geom.Point{a, a}},
		{"many", random},
		{"many-coincident", []geom.Point{a, b, a, random[0], random[0], b, random[1]}},
	}
	// Candidates: fresh points, every tour node (coincident with a stop)
	// and the midpoint of a and b (ties between symmetric slots).
	cands := append([]geom.Point{geom.Pt(0, 0), geom.Pt(-1e3, 7), geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)}, random[:4]...)
	cands = append(cands, a, b)
	for _, tc := range tours {
		name, stops := tc.name, tc.stops
		set := pointSet(append(append([]geom.Point(nil), stops...), cands...))
		tour := tsp.Tour{}
		for i := range stops {
			tour.Order = append(tour.Order, i)
		}
		var sc insertionScratch
		sc.reset(len(stops), func(i int) geom.Point { return stops[i] }, true)
		for v := len(stops); v < set.Len(); v++ {
			wantPos, wantDelta := tsp.BestInsertion(tour, v, set.Dist)
			pos, delta := sc.cheapest(set.Locs[v].Pos)
			if pos != wantPos || math.Float64bits(delta) != math.Float64bits(wantDelta) {
				t.Errorf("%s: candidate %v: cheapest = (%d, %v), tsp.BestInsertion = (%d, %v)",
					name, set.Locs[v].Pos, pos, delta, wantPos, wantDelta)
			}
		}
	}
}

// TestCheapestMatchesPathInsertion: on an open path, the scratch's loop
// returns the reference openPath.insertion's position and delta bit for
// bit — on the empty path, on a path with stops, and where rounding makes
// the raw delta negative so that both clamp it to 0.
func TestCheapestMatchesPathInsertion(t *testing.T) {
	r := rng.New(11).Rand()
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Pt(r.Float64()*200, r.Float64()*200))
	}
	// A point on the segment (0,0)–(0.3,7) whose raw insertion delta
	// rounds below zero.
	onSeg := geom.Pt(0.3/3, 7.0/3)
	pts = append(pts, onSeg, geom.Pt(0, 0))
	set := pointSet(pts)
	cases := []struct {
		name string
		path openPath
		cand []int
	}{
		{"empty", openPath{start: geom.Pt(5, 5), end: geom.Pt(150, 20)}, []int{0, 1, 2, 3, 11}},
		{"stops", openPath{start: geom.Pt(5, 5), end: geom.Pt(150, 20), order: []int{4, 5, 6, 4}}, []int{0, 1, 2, 3, 4, 7, 11}},
		{"clamped", openPath{start: geom.Pt(0, 0), end: geom.Pt(0.3, 7)}, []int{10}},
	}
	s, e := cases[2].path.start, cases[2].path.end
	if raw := s.Dist(onSeg) + onSeg.Dist(e) - s.Dist(e); raw >= 0 {
		t.Fatalf("clamp case has raw delta %v, want < 0", raw)
	}
	for _, tc := range cases {
		var sc insertionScratch
		sc.reset(len(tc.path.order)+2, func(i int) geom.Point { return tc.path.node(set, i) }, false)
		for _, c := range tc.cand {
			wantPos, wantDelta := tc.path.insertion(set, c)
			pos, delta := sc.cheapest(set.Locs[c].Pos)
			if pos != wantPos || math.Float64bits(delta) != math.Float64bits(wantDelta) {
				t.Errorf("%s: candidate %d: cheapest = (%d, %v), openPath.insertion = (%d, %v)",
					tc.name, c, pos, delta, wantPos, wantDelta)
			}
		}
	}
	if _, delta := cases[2].path.insertion(set, 10); math.Float64bits(delta) != 0 {
		t.Errorf("clamped delta = %v, want +0", delta)
	}
}
