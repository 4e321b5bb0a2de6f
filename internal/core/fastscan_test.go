package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	e, d, _ := sc.scan(p)
	return sc.slot(e, d)
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

// memoField is a random field for the memo property tests: the route's
// stops are location ids 0..stops-1 and the candidates the rest. On
// lattice fields every point sits on a 17×17 grid, so collinear points
// and mirror-image edges make exact ties between deltas common; every
// field also repeats some stops and places candidates on stops.
func memoField(r *rand.Rand, side float64, stops, cands int, lattice bool) *hover.Set {
	pt := func() geom.Point {
		if lattice {
			return geom.Pt(float64(r.Intn(17))*side/16, float64(r.Intn(17))*side/16)
		}
		return geom.Pt(r.Float64()*side, r.Float64()*side)
	}
	pts := make([]geom.Point, stops+cands)
	for i := range pts {
		switch {
		case i > 0 && i < stops && r.Intn(8) == 0:
			pts[i] = pts[r.Intn(i)] // a repeated stop
		case i >= stops && r.Intn(10) == 0:
			pts[i] = pts[r.Intn(stops)] // a candidate on a stop
		default:
			pts[i] = pt()
		}
	}
	return pointSet(pts)
}

// memoScratch loads the route through set's locations in order into a
// fresh scratch and memoizes every candidate.
func memoScratch(set *hover.Set, order []int, closed bool) (*insertionScratch, []int32, []bool) {
	sc := &insertionScratch{gen: 1, memo: make([]insMemo, set.Len())}
	sc.reset(len(order), func(i int) geom.Point { return set.Locs[order[i]].Pos }, closed)
	inRoute := make([]bool, set.Len())
	for _, v := range order {
		inRoute[v] = true
	}
	var ids []int32
	for c := range set.Locs {
		if !inRoute[c] {
			ids = append(ids, int32(c))
			sc.memoized(c, set.Locs[c].Pos)
		}
	}
	return sc, ids, inRoute
}

// splitUnfiltered is split without farFrom: both new edges are priced
// for every live memo. It is the oracle the filter must match.
func (sc *insertionScratch) splitUnfiltered(j int, ids []int32, locs []hover.Location, inRoute []bool) {
	for _, c := range ids {
		m := &sc.memo[c]
		if m.gen != sc.gen || inRoute[c] {
			continue
		}
		p := locs[c].Pos
		e := int(m.edge)
		d0, d1 := sc.delta(j, p), sc.delta(j+1, p)
		if e == j {
			switch {
			case d0 < m.d && d0 <= d1:
				m.edge, m.d, m.tie = int32(j), d0, d0 == d1
			case d1 < m.d && d1 < d0:
				m.edge, m.d, m.tie = int32(j+1), d1, false
			default:
				m.gen = 0
			}
			continue
		}
		if e > j {
			e++
		}
		e, d, tie := fold(e, m.d, m.tie, j, d0)
		e, d, tie = fold(e, d, tie, j+1, d1)
		m.edge, m.d, m.tie = int32(e), d, tie
	}
}

// checkMemos holds every live memo of ids outside the route to a fresh
// scan of sc's route:
// edge and delta bit for bit, and a tie flag wherever the scan ties
// (exactTie: and nowhere else). It returns how many memos it checked.
func checkMemos(t *testing.T, what string, sc *insertionScratch, set *hover.Set, ids []int32, inRoute []bool, exactTie bool) int {
	t.Helper()
	n := 0
	for _, c := range ids {
		m := sc.memo[c]
		if m.gen != sc.gen || inRoute[c] {
			continue
		}
		n++
		e, d, tie := sc.scan(set.Locs[c].Pos)
		if int(m.edge) != e || !sameBits(m.d, d) || tie && !m.tie || exactTie && tie != m.tie {
			t.Fatalf("%s: location %d at %v: memo (%d, %v, tie %v), scan (%d, %v, tie %v)",
				what, c, set.Locs[c].Pos, m.edge, m.d, m.tie, e, d, tie)
		}
	}
	return n
}

// TestSplitFilterMatchesUnfiltered: on random routes over sides from 1 km
// to 10⁴ km, with repeated points and lattice ties, split with its
// distance filter leaves every memo — edge, delta bits, tie flag and
// liveness — exactly as pricing both new edges for every location does,
// and every live memo equals a fresh scan.
func TestSplitFilterMatchesUnfiltered(t *testing.T) {
	var filtered, visits, ties int
	for _, side := range []float64{1e3, 1e4, 1e5, 1e6, 1e7} {
		for seed := uint64(1); seed <= 12; seed++ {
			r := rng.New(seed).Rand()
			lattice, closed := seed%2 == 0, seed%3 != 0
			set := memoField(r, side, 40, 160, lattice)
			order := []int{0}
			if !closed {
				order = order[:0]
			}
			nodes := func() int {
				if closed {
					return len(order)
				}
				return len(order) + 2
			}
			// A path runs from stop 0 through the order to stop 1.
			node := func(i int) geom.Point {
				switch {
				case closed:
					return set.Locs[order[i]].Pos
				case i == 0:
					return set.Locs[0].Pos
				case i == len(order)+1:
					return set.Locs[1].Pos
				}
				return set.Locs[order[i-1]].Pos
			}
			sc := &insertionScratch{gen: 1, memo: make([]insMemo, set.Len())}
			sc.reset(nodes(), node, closed)
			oracle := &insertionScratch{gen: 1, memo: make([]insMemo, set.Len())}
			inRoute := make([]bool, set.Len())
			inRoute[0], inRoute[1] = true, !closed
			var ids []int32
			for c := 2; c < set.Len(); c++ {
				ids = append(ids, int32(c))
			}
			for v := 2; v < 40; v++ {
				for _, c := range ids {
					if !inRoute[c] {
						sc.memoized(int(c), set.Locs[c].Pos)
					}
				}
				copy(oracle.memo, sc.memo)
				pos := r.Intn(len(order) + 1) // a path slot
				if closed {
					pos = 1 + r.Intn(len(order))
				}
				j := sc.edgeAt(pos)
				order = slices.Insert(order, pos, v)
				inRoute[v] = true
				sc.reset(nodes(), node, closed)
				oracle.reset(nodes(), node, closed)
				q := sc.pts[j+1]
				for _, c := range ids {
					if m := sc.memo[c]; m.gen == sc.gen && !inRoute[c] {
						visits++
						if farFrom(set.Locs[c].Pos, q, sc.edge[j], sc.edge[j+1], m.d) {
							filtered++
						}
					}
				}
				sc.split(j, ids, set.Locs, inRoute)
				oracle.splitUnfiltered(j, ids, set.Locs, inRoute)
				for _, c := range ids {
					if got, want := sc.memo[c], oracle.memo[c]; got != want && (got.gen == sc.gen || want.gen == sc.gen) {
						t.Fatalf("side %g seed %d: insertion of %d at %d: location %d at %v: filtered %+v, unfiltered %+v",
							side, seed, v, pos, c, set.Locs[c].Pos, got, want)
					}
					if sc.memo[c].gen == sc.gen && sc.memo[c].tie {
						ties++
					}
				}
				checkMemos(t, "split", sc, set, ids, inRoute, false)
			}
		}
	}
	t.Logf("%d of %d split visits filtered; %d live memos carried a tie", filtered, visits, ties)
	if filtered == 0 || filtered == visits || ties == 0 {
		t.Fatalf("inert test: %d of %d visits filtered, %d ties", filtered, visits, ties)
	}

	// The filter's bound is tight when p, a, q and b lie on one line in
	// that order with |qb| ≤ |aq|: then the memo's delta on edge a→b and
	// the new edge a→q's are both 2|pa|, and |pq| = |aq| + d/2 exactly.
	// On near-collinear points rounding decides the comparison, so only
	// the slack keeps the filter from voiding a memo the split keeps.
	r := rng.New(99).Rand()
	tight := 0
	for i := 0; i < 20000; i++ {
		side := math.Pow(10, 3+4*r.Float64())
		p := geom.Pt(r.Float64()*side, r.Float64()*side)
		th := 2 * math.Pi * r.Float64()
		at := func(t float64) geom.Point { return geom.Pt(p.X+t*side*math.Cos(th), p.Y+t*side*math.Sin(th)) }
		t1 := 0.01 + 0.1*r.Float64()
		t2 := t1 + 0.1*r.Float64()
		t3 := t2 + (t2-t1)*r.Float64()
		a, q, b := at(t1), at(t2), at(t3)
		set := pointSet([]geom.Point{a, q, b, p})
		route := []int{0, 2}
		node := func(i int) geom.Point { return set.Locs[route[i]].Pos }
		sc := &insertionScratch{gen: 1, memo: make([]insMemo, set.Len())}
		sc.reset(2, node, false)
		sc.memoized(3, p)
		oracle := &insertionScratch{gen: 1, memo: slices.Clone(sc.memo)}
		route = []int{0, 1, 2}
		sc.reset(3, node, false)
		oracle.reset(3, node, false)
		inRoute := []bool{true, true, true, false}
		t0 := max(sc.edge[0], sc.edge[1]) + sc.memo[3].d/2
		dx, dy := p.X-q.X, p.Y-q.Y
		if math.Abs(dx*dx+dy*dy-t0*t0) <= 1e-12*t0*t0 {
			tight++
		}
		sc.split(0, []int32{3}, set.Locs, inRoute)
		oracle.splitUnfiltered(0, []int32{3}, set.Locs, inRoute)
		if got, want := sc.memo[3], oracle.memo[3]; got != want && (got.gen == sc.gen || want.gen == sc.gen) {
			t.Fatalf("collinear case %d (side %g): filtered %+v, unfiltered %+v", i, side, got, want)
		}
	}
	if tight < 10000 {
		t.Fatalf("inert test: only %d of 20000 collinear cases sit on the bound", tight)
	}
}

// TestMemoRepairMatchesScan: across re-tours of closed tours by
// tsp.Retour (2-opt and Or-opt moves, from random perturbations of its
// last tour), by hand-made 2-opt reversals and Or-opt relocations, and
// by pure rotations, on random and lattice fields over sides from 1 km
// to 10⁴ km, every memo retour keeps live equals a fresh scan of the new
// tour, tie flag included.
func TestMemoRepairMatchesScan(t *testing.T) {
	var carried, voided, tied int
	for _, side := range []float64{1e3, 1e4, 1e5, 1e7} {
		for seed := uint64(1); seed <= 10; seed++ {
			r := rng.New(seed).Rand()
			n := 4 + r.Intn(24)
			set := memoField(r, side, n, 120, seed%2 == 0)
			tour := tsp.Tour{Order: r.Perm(n)}
			var rt tsp.Retour
			rt.Improve(&tour, set.Dist)
			sc, ids, inRoute := memoScratch(set, tour.Order, true)
			for step := 0; step < 30; step++ {
				for _, c := range ids {
					sc.memoized(int(c), set.Locs[c].Pos)
				}
				before := slices.Clone(tour.Order)
				o := tour.Order
				switch step % 4 {
				case 0: // a pure rotation
					k := 1 + r.Intn(n-1)
					tour.Order = append(o[k:], o[:k]...)
				case 1: // a 2-opt reversal
					i := r.Intn(n - 1)
					slices.Reverse(o[i : i+2+r.Intn(n-i-1)])
				case 2: // an Or-opt relocation of up to three stops
					l := 1 + r.Intn(min(3, n-1))
					i := r.Intn(n - l + 1)
					seg := slices.Clone(o[i : i+l])
					rest := slices.Delete(slices.Clone(o), i, i+l)
					tour.Order = slices.Insert(rest, r.Intn(len(rest)+1), seg...)
				case 3: // perturb, then let the re-tour search move
					i, k := r.Intn(n), r.Intn(n)
					o[i], o[k] = o[k], o[i]
					before = slices.Clone(o) // the swap is an edit, not a re-tour
					sc.reset(n, func(i int) geom.Point { return set.Locs[o[i]].Pos }, true)
					sc.gen++
					for _, c := range ids {
						sc.memoized(int(c), set.Locs[c].Pos)
					}
				}
				rt.Improve(&tour, set.Dist)
				live := 0
				for _, c := range ids {
					if m := sc.memo[c]; m.gen == sc.gen {
						live++
						if m.tie {
							tied++
						}
					}
				}
				after := tour.Order
				sc.reset(n, func(i int) geom.Point { return set.Locs[after[i]].Pos }, true)
				sc.retour(before, after, ids, set.Locs, inRoute)
				kept := checkMemos(t, fmt.Sprintf("side %g seed %d step %d", side, seed, step), sc, set, ids, inRoute, true)
				carried += kept
				voided += live - kept
			}
		}
	}
	t.Logf("%d memos carried, %d voided, %d tied before a re-tour", carried, voided, tied)
	if carried == 0 || voided == 0 || tied == 0 {
		t.Fatalf("inert test: %d carried, %d voided, %d tied", carried, voided, tied)
	}
}
