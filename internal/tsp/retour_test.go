package tsp

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// observed is one side of a differential run: counters and a trace buffer
// behind one recorder.
type observed struct {
	reg *obs.Registry
	buf *trace.Buffer
	rec obs.Recorder
}

func newObserved() observed {
	reg, buf := obs.NewRegistry(), trace.NewBuffer()
	return observed{reg: reg, buf: buf, rec: trace.With(reg, buf)}
}

func (o observed) stripped(t testing.TB) string {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, o.buf.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// stepOp names what one step of a differential run does to the tour
// before its re-tour.
type stepOp int

const (
	opNone   stepOp = iota // re-tour the unchanged tour, as the greedy planners do after an upgrade
	opRemove               // delete the item at pos
	opInsert               // insert item before position pos (pos == n appends, at the wrap)
)

// step is one edit of a differential run.
type step struct {
	op        stepOp
	pos, item int
}

// retourRun configures one differential run of a re-tour against Improve.
type retourRun struct {
	pts []geom.Point
	// hover, if set, weights the field's nodes (see fieldMetric).
	hover []float64
	start []int
	// next chooses the next step from the current order and the items of
	// pts not in it; false ends the run.
	next func(order, absent []int) (step, bool)
	// rotate, if set, names the item both tours are rotated to after
	// every re-tour.
	rotate func(order []int) int
	// via selects the re-tour under test.
	via retourVia
}

// retourVia names a re-tour held to Improve.
type retourVia int

const (
	viaMatrix retourVia = iota // a Retour over the caller's matrix (NewRetour)
	viaMetric                  // ImproveMetric, a fresh search every time
	viaRetour                  // a zero Retour, its matrix over growing slots
)

// removals is a next func that removes at pick(n) until one item is
// left.
func removals(pick func(n int) int) func(order, absent []int) (step, bool) {
	return func(order, _ []int) (step, bool) {
		if len(order) <= 1 {
			return step{}, false
		}
		return step{op: opRemove, pos: pick(len(order))}, true
	}
}

// mixedSteps is a next func for count steps of every kind: removals at
// the first, the last and an interior position, insertions at the
// front, in the interior and at the wrap, and no-edit re-tours.
func mixedSteps(r *rand.Rand, count int) func(order, absent []int) (step, bool) {
	return func(order, absent []int) (step, bool) {
		if count == 0 {
			return step{}, false
		}
		count--
		n := len(order)
		at := func(last int) int { // 0, last or an interior position
			switch k := r.Intn(4); {
			case k == 0 || last == 0:
				return 0
			case k == 1:
				return last
			}
			return r.Intn(last + 1)
		}
		switch k := r.Intn(5); {
		case k < 2 && n > 1:
			return step{op: opRemove, pos: at(n - 1)}, true
		case k < 4 && len(absent) > 0:
			return step{op: opInsert, pos: at(n), item: absent[r.Intn(len(absent))]}, true
		}
		return step{op: opNone}, true
	}
}

// retourStats counts the re-tours by outcome: quiet ones made no move,
// moving ones improved the tour. replayed counts those that replayed from
// the tour's last fixed point rather than searching the whole tour.
type retourStats struct {
	quiet, moving, replayed int
}

func (s *retourStats) add(o retourStats) {
	s.quiet += o.quiet
	s.moving += o.moving
	s.replayed += o.replayed
}

// require fails unless both outcomes occurred and some re-tour replayed,
// or the run proves nothing about the one that did not.
func (s retourStats) require(t testing.TB) {
	t.Helper()
	if s.quiet == 0 || s.moving == 0 || s.replayed == 0 {
		t.Fatalf("quiet %d, moving %d, replayed %d: an outcome never occurred", s.quiet, s.moving, s.replayed)
	}
}

// replays reports whether fp's next improve on order o replays from the
// fixed point fp holds rather than searching the whole tour: whether its
// mark accepts o. It marks a copy and leaves fp as it is.
func replays(fp *fixedPoint, o []int) bool {
	g := fixedPoint{order: fp.order, at: slices.Clone(fp.at)}
	for _, u := range o {
		for len(g.at) <= u {
			g.at = append(g.at, -1) // an item the fixed point never held
		}
	}
	g.dirty = make([]bool, len(g.at))
	return g.mark(o)
}

// check runs the steps, holding the re-tour to Improve on the same tour
// after every step: the same order, the same saving bit for bit, and the
// same counters and stripped span stream for that step.
func (r retourRun) check(t testing.TB) retourStats {
	t.Helper()
	m := fieldMetric(r.pts, r.hover)
	x := NewMatrix(len(r.pts), m)
	tour := &Tour{Order: slices.Clone(r.start)}
	var rt *Retour // nil for ImproveMetric
	improve := func(rec obs.Recorder) float64 { return ImproveMetric(tour, m, rec) }
	switch r.via {
	case viaMatrix:
		rt = NewRetour(x)
	case viaRetour:
		rt = new(Retour)
	}
	if rt != nil {
		improve = func(rec obs.Recorder) float64 { return rt.Improve(tour, m, rec) }
	}
	ref := Tour{Order: slices.Clone(r.start)}
	// replaying reports whether the re-tour of the edited order, which
	// ref holds until Improve runs, will replay. A Retour's fixed point
	// is over slots; an item without one gets the next free slot.
	replaying := func() bool {
		if rt == nil {
			return false
		}
		o := make([]int, len(ref.Order))
		free := len(rt.label)
		for i, v := range ref.Order {
			if v < len(rt.slot) && rt.slot[v] >= 0 {
				o[i] = int(rt.slot[v])
			} else {
				o[i] = free
				free++
			}
		}
		return replays(&rt.fp, o)
	}
	var st retourStats
	retour := func(what string, s step, edit func(got observed) float64) {
		t.Helper()
		if replaying() {
			st.replayed++
		}
		got, want := newObserved(), newObserved()
		gotSaved := edit(got)
		wantSaved := Improve(&ref, x, want.rec)
		if !slices.Equal(tour.Order, ref.Order) {
			t.Fatalf("%s %+v: order %v, Improve gives %v", what, s, tour.Order, ref.Order)
		}
		if math.Float64bits(gotSaved) != math.Float64bits(wantSaved) {
			t.Fatalf("%s %+v: saved %v, Improve saves %v", what, s, gotSaved, wantSaved)
		}
		if g, w := got.reg.Snapshot().Counters, want.reg.Snapshot().Counters; !maps.Equal(g, w) {
			t.Fatalf("%s %+v: counters %v, Improve records %v", what, s, g, w)
		}
		if g, w := got.stripped(t), want.stripped(t); g != w {
			t.Fatalf("%s %+v: span stream differs:\n%s\nImprove emits:\n%s", what, s, g, w)
		}
		if wantSaved > 0 {
			st.moving++
		} else {
			st.quiet++
		}
		if r.rotate != nil {
			v := r.rotate(ref.Order)
			tour.RotateTo(v)
			ref.RotateTo(v)
		}
	}
	retour("initial polish", step{}, func(got observed) float64 { return improve(got.rec) })
	in := make([]bool, len(r.pts))
	for {
		clear(in)
		for _, v := range ref.Order {
			in[v] = true
		}
		var absent []int
		for v, ok := range in {
			if !ok {
				absent = append(absent, v)
			}
		}
		s, ok := r.next(slices.Clone(ref.Order), absent)
		if !ok {
			break
		}
		switch s.op {
		case opRemove:
			ref.Order = slices.Delete(ref.Order, s.pos, s.pos+1)
			retour("removal", s, func(got observed) float64 {
				tour.Order = slices.Delete(tour.Order, s.pos, s.pos+1)
				return improve(got.rec)
			})
		case opInsert:
			ref.Order = slices.Insert(ref.Order, s.pos, s.item)
			retour("insertion", s, func(got observed) float64 {
				tour.Order = slices.Insert(tour.Order, s.pos, s.item)
				return improve(got.rec)
			})
		default:
			retour("no-edit re-tour", s, func(got observed) float64 { return improve(got.rec) })
		}
	}
	retour("final polish", step{}, func(got observed) float64 { return improve(got.rec) })
	return st
}

// fieldMetric is the distance between the points of pts or, with node
// weights hover, Algorithm 1's G_s cost over them (Eq. 9): (hover[i] +
// hover[j])/2 + d(i, j), 0 from a node to itself.
func fieldMetric(pts []geom.Point, hover []float64) Metric {
	if hover == nil {
		return euclid(pts)
	}
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		return (hover[i]+hover[j])/2 + pts[i].Dist(pts[j])
	}
}

// randHover returns n node weights in [0, top).
func randHover(r *rand.Rand, n int, top float64) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = r.Float64() * top
	}
	return h
}

// checkFresh holds the fresh searches, ImproveMetric and a new Retour's
// first Improve over the caller's matrix, to the plain sweeps' Improve
// from start on the field pts, its nodes weighted by hover if set: the
// same order, the same saving bit for bit, and the same counters and
// stripped span stream. It reports whether the search moved.
func checkFresh(t testing.TB, pts []geom.Point, hover []float64, start []int) bool {
	t.Helper()
	m := fieldMetric(pts, hover)
	x := NewMatrix(len(pts), m)
	want := newObserved()
	ref := Tour{Order: slices.Clone(start)}
	wantSaved := Improve(&ref, x, want.rec)
	for _, fresh := range []struct {
		name    string
		improve func(tour *Tour, rec obs.Recorder) float64
	}{
		{"ImproveMetric", func(tour *Tour, rec obs.Recorder) float64 { return ImproveMetric(tour, m, rec) }},
		{"NewRetour", func(tour *Tour, rec obs.Recorder) float64 { return NewRetour(x).Improve(tour, m, rec) }},
	} {
		name := fresh.name
		got := newObserved()
		tour := Tour{Order: slices.Clone(start)}
		gotSaved := fresh.improve(&tour, got.rec)
		if !slices.Equal(tour.Order, ref.Order) {
			t.Fatalf("%s: order %v, Improve gives %v", name, tour.Order, ref.Order)
		}
		if math.Float64bits(gotSaved) != math.Float64bits(wantSaved) {
			t.Fatalf("%s: saved %v, Improve saves %v", name, gotSaved, wantSaved)
		}
		if g, w := got.reg.Snapshot().Counters, want.reg.Snapshot().Counters; !maps.Equal(g, w) {
			t.Fatalf("%s: counters %v, Improve records %v", name, g, w)
		}
		if g, w := got.stripped(t), want.stripped(t); g != w {
			t.Fatalf("%s: span stream differs:\n%s\nImprove emits:\n%s", name, g, w)
		}
	}
	return wantSaved > 0
}

// TestFreshSearchMatchesImprove holds the fresh searches to the plain
// sweeps on random fields, plain and with weighted nodes as Algorithm 1's
// G_s costs, from random orders and Christofides tours over all or part
// of the field, on fields where many items share a position, and on
// 17×17 lattices of side 100 km and 10⁴ km.
func TestFreshSearchMatchesImprove(t *testing.T) {
	moved := 0
	check := func(pts []geom.Point, start []int) {
		t.Helper()
		if checkFresh(t, pts, nil, start) {
			moved++
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(2+r.Intn(150), 1500+seed)
		check(pts, r.Perm(len(pts)))
		check(pts, r.Perm(len(pts))[:1+r.Intn(len(pts))])
		check(pts, polishedOrder(t, pts))
	}
	weightedMoved := 0
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(2+r.Intn(150), 1600+seed)
		// Node weights up to about the field's width, as hover energies
		// are of the order of a crossing's travel energy.
		h := randHover(r, len(pts), 1000)
		for _, start := range [][]int{r.Perm(len(pts)), r.Perm(len(pts))[:1+r.Intn(len(pts))], polishedOrder(t, pts)} {
			if checkFresh(t, pts, h, start) {
				weightedMoved++
			}
		}
	}
	if weightedMoved == 0 {
		t.Fatal("no fresh search on a weighted field made a move")
	}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, 40)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(4)), float64(r.Intn(4)))
		}
		check(pts, r.Perm(len(pts)))
	}
	for _, side := range []float64{1e5, 1e7} {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			pts := make([]geom.Point, 80)
			for i := range pts {
				pts[i] = geom.Pt(float64(r.Intn(17))*side/16, float64(r.Intn(17))*side/16)
			}
			check(pts, r.Perm(len(pts)))
		}
	}
	if moved == 0 {
		t.Fatal("no fresh search made a move")
	}
}

// polishedOrder returns a Christofides tour over pts, the start the
// planners prune from.
func polishedOrder(t testing.TB, pts []geom.Point) []int {
	t.Helper()
	tour, err := Christofides(allItems(len(pts)), euclid(pts))
	if err != nil {
		t.Fatal(err)
	}
	return tour.Order
}

func TestRetourMatchesImproveRandomRemovals(t *testing.T) {
	var total retourStats
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(90)
		pts := randPts(n, 500+seed)
		start := polishedOrder(t, pts)
		if seed%3 == 0 {
			start = r.Perm(n)
		}
		total.add(retourRun{pts: pts, start: start, next: removals(r.Intn)}.check(t))
	}
	total.require(t)
}

// TestRetourMatchesImproveMixedEdits interleaves removals, insertions and
// no-edit re-tours at every kind of position, from a polished start over
// part of the field and from a random one.
func TestRetourMatchesImproveMixedEdits(t *testing.T) {
	var total retourStats
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(40+r.Intn(80), 600+seed)
		start := r.Perm(len(pts))[:len(pts)/2]
		if seed%2 == 0 {
			start = polishedOrder(t, pts)[:len(pts)/2]
		}
		total.add(retourRun{pts: pts, start: start, next: mixedSteps(r, 120)}.check(t))
	}
	total.require(t)
}

// TestRetourMatchesImproveGrowingTour inserts every item, one at a time
// at its cheapest position, into a tour that starts at one item: the
// greedy planners' growth, each insertion followed by a no-edit re-tour.
func TestRetourMatchesImproveGrowingTour(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		pts := randPts(90, 800+seed)
		m := euclid(pts)
		r := rand.New(rand.NewSource(seed))
		upgrade := false
		next := func(order, absent []int) (step, bool) {
			if upgrade = !upgrade; upgrade {
				return step{op: opNone}, true
			}
			if len(absent) == 0 {
				return step{}, false
			}
			v := absent[r.Intn(len(absent))]
			pos, _ := BestInsertion(Tour{Order: order}, v, m)
			return step{op: opInsert, pos: pos, item: v}, true
		}
		retourRun{pts: pts, start: []int{0}, next: next}.check(t)
	}
}

// TestRetourMatchesImproveAtTheWrap removes at the first and the last
// position, where the wrap edge changes, alternating with interior
// removals.
func TestRetourMatchesImproveAtTheWrap(t *testing.T) {
	pts := randPts(50, 77)
	k := 0
	pick := func(n int) int {
		k++
		switch k % 3 {
		case 0:
			return 0
		case 1:
			return n - 1
		}
		return n / 2
	}
	retourRun{pts: pts, start: polishedOrder(t, pts), next: removals(pick)}.check(t)
}

// TestRetourMatchesImproveThroughTinyTours shrinks tours through 4, 3 and
// 2 items, where the sweeps stop recording passes, and grows them back.
func TestRetourMatchesImproveThroughTinyTours(t *testing.T) {
	for n := 4; n <= 7; n++ {
		for seed := int64(0); seed < 6; seed++ {
			pts := randPts(n, 40+seed)
			r := rand.New(rand.NewSource(seed))
			retourRun{pts: pts, start: polishedOrder(t, pts), next: removals(r.Intn)}.check(t)
			retourRun{pts: pts, start: []int{0, 1}, next: mixedSteps(r, 40)}.check(t)
		}
	}
}

// TestRetourMatchesImproveDuplicatePoints uses fields where many items
// share a position, so tours carry zero-length edges and zero gains.
func TestRetourMatchesImproveDuplicatePoints(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, 40)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(4)), float64(r.Intn(4)))
		}
		retourRun{pts: pts, start: r.Perm(len(pts)), next: removals(r.Intn)}.check(t)
		retourRun{pts: pts, start: r.Perm(len(pts))[:20], next: mixedSteps(r, 80)}.check(t)
	}
}

// TestRetourMatchesImproveAfterIterationCap starts from a tour on which
// Improve stopped at its iteration cap, so the tour is not a fixed point
// and the next re-tour must search the whole tour.
func TestRetourMatchesImproveAfterIterationCap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(120, 900+seed)
		x := NewMatrix(len(pts), euclid(pts))
		start := r.Perm(len(pts))
		capped := Tour{Order: slices.Clone(start)}
		if _, fixed := improve(&capped, x, obs.Discard); fixed {
			continue
		}
		retourRun{pts: pts, start: start, next: mixedSteps(r, 60)}.check(t)
		return
	}
	t.Fatal("no seed made Improve stop at its iteration cap")
}

// TestRetourMatchesImproveWithRotation rotates both tours after every
// re-tour: to the first item, as BenchmarkCoverage keeps its depot first,
// and to a random item.
func TestRetourMatchesImproveWithRotation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(60, 300+seed)
		start := polishedOrder(t, pts)
		depot := start[0]
		pick := func(n int) int { return 1 + r.Intn(n-1) }
		first := func([]int) int { return depot }
		retourRun{pts: pts, start: start, next: removals(pick), rotate: first}.check(t)
		anywhere := func(order []int) int { return order[r.Intn(len(order))] }
		retourRun{pts: pts, start: start, next: removals(r.Intn), rotate: anywhere}.check(t)
		retourRun{pts: pts, start: start[:30], next: mixedSteps(r, 60), rotate: anywhere}.check(t)
	}
}

// TestRetourMatchesImproveWithoutMatrix covers the re-tour of a caller
// that holds only a Metric, ImproveMetric every time, as on the
// baselines' reference path.
func TestRetourMatchesImproveWithoutMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPts(40, 5)
	retourRun{pts: pts, start: polishedOrder(t, pts), next: removals(r.Intn), via: viaMetric}.check(t)
	retourRun{pts: pts, start: polishedOrder(t, pts)[:20], next: mixedSteps(r, 60), via: viaMetric}.check(t)
}

// TestRetourTypeMatchesImprove holds a Retour, whose matrix is over slots
// in order of first appearance rather than over the items, to Improve:
// the greedy planners' growth with no-edit re-tours, then mixed edits,
// removals down to one item, and rotations.
func TestRetourTypeMatchesImprove(t *testing.T) {
	var total retourStats
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(30+r.Intn(90), 1100+seed)
		runs := []retourRun{
			{start: []int{r.Intn(len(pts))}, next: mixedSteps(r, 3*len(pts))},
			{start: r.Perm(len(pts))[:len(pts)/3], next: mixedSteps(r, 100)},
			{start: polishedOrder(t, pts), next: removals(r.Intn)},
			{start: r.Perm(len(pts)), next: mixedSteps(r, 60), rotate: func(order []int) int { return order[r.Intn(len(order))] }},
		}
		for _, run := range runs {
			run.pts, run.via = pts, viaRetour
			total.add(run.check(t))
		}
	}
	total.require(t)
}

// TestRetourMatchesImproveLargeFields runs both searches on 17×17
// lattice fields of side 100 km and 10⁴ km, whose collinear points and
// mirror-image edges give moves that gain nothing: their deltas round to
// either side of zero by more than an absolute tolerance allows, so the
// 2-opt sweep must weigh each delta against the lengths it is made of to
// end at all, and Or-opt each gain against its six lengths to take none
// of them (TestOrOptMovesIgnoreScale).
func TestRetourMatchesImproveLargeFields(t *testing.T) {
	for _, side := range []float64{1e5, 1e7} {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			pts := make([]geom.Point, 80)
			for i := range pts {
				pts[i] = geom.Pt(float64(r.Intn(17))*side/16, float64(r.Intn(17))*side/16)
			}
			for _, via := range []retourVia{viaMatrix, viaRetour} {
				retourRun{pts: pts, start: r.Perm(len(pts)), next: mixedSteps(r, 60), via: via}.check(t)
			}
		}
	}
}

// TestOrOptMovesIgnoreScale polishes one 17×17 lattice field, that of
// TestRetourMatchesImproveLargeFields's first seed, at sides 16 m,
// 100 km and 10⁴ km. Scaling every coordinate scales every true gain
// alike, so the polish must make the same moves at every side; with an
// absolute tolerance alone, Or-opt took one more relocation at 100 km,
// whose gain was rounding only.
func TestOrOptMovesIgnoreScale(t *testing.T) {
	var want map[string]int64
	var wantOrder []int
	for _, side := range []float64{16, 1e5, 1e7} {
		r := rand.New(rand.NewSource(0))
		pts := make([]geom.Point, 80)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(17))*side/16, float64(r.Intn(17))*side/16)
		}
		tour := Tour{Order: r.Perm(len(pts))}
		reg := obs.NewRegistry()
		ImproveMetric(&tour, euclid(pts), reg)
		got := reg.Snapshot().Counters
		if want == nil {
			want, wantOrder = got, tour.Order
			continue
		}
		if !maps.Equal(got, want) || !slices.Equal(tour.Order, wantOrder) {
			t.Fatalf("side %g: counters %v, order %v; side 16 gives %v, %v", side, got, tour.Order, want, wantOrder)
		}
	}
}

// FuzzRetourMatchesImprove holds the re-tours, and the fresh searches
// from their start, to Improve on fields of side 100 m to 10⁴ km (scale),
// random or on a 5×5 grid of duplicates, their nodes weighted as
// Algorithm 1's G_s costs if weighted.
func FuzzRetourMatchesImprove(f *testing.F) {
	f.Add(int64(1), uint8(40), false, false, uint8(0), false)
	f.Add(int64(2), uint8(9), true, false, uint8(0), false)
	f.Add(int64(3), uint8(70), false, true, uint8(3), false)
	f.Add(int64(4), uint8(55), true, true, uint8(5), false)
	f.Add(int64(6), uint8(80), true, false, uint8(4), false)
	f.Add(int64(7), uint8(60), false, true, uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, dupes, rotate bool, scale uint8, weighted bool) {
		n := 2 + int(size)%90
		side := 100 * math.Pow(10, float64(scale%6))
		r := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			if dupes {
				pts[i] = geom.Pt(float64(r.Intn(5))*side/4, float64(r.Intn(5))*side/4)
			} else {
				pts[i] = geom.Pt(r.Float64()*side, r.Float64()*side)
			}
		}
		start := r.Perm(n)
		if seed%2 == 0 {
			start = polishedOrder(t, pts)
		}
		// Seeds ≡ 2 or 3 (mod 4) mix every edit from a start over part
		// of the field; the rest remove down to one item.
		run := retourRun{pts: pts, start: start, next: removals(r.Intn)}
		if weighted {
			run.hover = randHover(r, n, side)
		}
		if seed%4 >= 2 {
			run.start = start[:1+r.Intn(n)]
			run.next = mixedSteps(r, 3*n)
		}
		if rotate {
			run.rotate = func(order []int) int { return order[r.Intn(len(order))] }
		}
		if seed%8 >= 4 {
			run.via = viaRetour
		}
		checkFresh(t, pts, run.hover, run.start)
		run.check(t)
	})
}

// BenchmarkImprove times the polish on a matrix over 501 uniform points.
// fresh is the baseline's first polish, a new Retour's full search over
// the matrix from the unpolished Christofides tour; oracle is the plain
// sweeps' polish of the same tour, which makes the same moves. retour is
// the baseline's prune loop after that first polish, which is not timed:
// remove the item at a random position and re-tour, down to 200 items,
// each re-tour a replay from the last fixed point.
func BenchmarkImprove(b *testing.B) {
	pts := randPts(501, 1)
	x := NewMatrix(len(pts), euclid(pts))
	start := polishedOrder(b, pts)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewRetour(x).Improve(&Tour{Order: slices.Clone(start)}, nil)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Improve(&Tour{Order: slices.Clone(start)}, x)
		}
	})
	b.Run("retour", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := rand.New(rand.NewSource(1))
			tour := Tour{Order: slices.Clone(start)}
			rt := NewRetour(x)
			rt.Improve(&tour, nil)
			b.StartTimer()
			for len(tour.Order) > 200 {
				k := r.Intn(len(tour.Order))
				tour.Order = slices.Delete(tour.Order, k, k+1)
				rt.Improve(&tour, nil)
			}
		}
	})
}

// TestRotationDropsCertificate rotates polished tours to every item. A
// rotation can expose an improving move the last sweeps never evaluated
// (an Or-opt segment that crossed the wrap), so the Retour's next Improve
// must search the whole tour; the test requires such rotations to occur.
func TestRotationDropsCertificate(t *testing.T) {
	exposed := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(6+r.Intn(30), 700+seed)
		x := NewMatrix(len(pts), euclid(pts))
		rt := NewRetour(x)
		polished := Tour{Order: r.Perm(len(pts))}
		rt.Improve(&polished, nil)
		if len(rt.fp.order) == 0 {
			continue // not at a fixed point
		}
		for _, v := range polished.Order {
			rt := NewRetour(x)
			tour := polished.Clone()
			rt.Improve(&tour, nil)
			ref := polished.Clone()
			tour.RotateTo(v)
			ref.RotateTo(v)
			got, want := rt.Improve(&tour, nil), Improve(&ref, x)
			if got != want || !slices.Equal(tour.Order, ref.Order) {
				t.Fatalf("seed %d, rotated to %d: saved %v order %v; Improve saves %v order %v",
					seed, v, got, tour.Order, want, ref.Order)
			}
			if want > 0 {
				exposed++
			}
		}
	}
	if exposed == 0 {
		t.Fatal("no rotation of a polished tour exposed an improving move")
	}
}

// TestRetourSkipsCertifiedEvaluations proves that a re-tour after a
// removal replays rather than searching the whole tour. After a removal
// whose re-tour makes no move, it zeroes the two distances that only the
// 2-opt pair of two clean edges far from the removal reads, making that
// pair improving. Improve finds a move; the replay, which skips every
// evaluation over clean edges only, must make none.
func TestRetourSkipsCertifiedEvaluations(t *testing.T) {
	const pos = 10 // removed position; the poisoned edges start 10 and 30 after it
	for _, via := range []retourVia{viaMatrix, viaRetour} {
		proved := false
		for seed := int64(0); seed < 40 && !proved; seed++ {
			pts := randPts(60, 1300+seed)
			m := euclid(pts)
			x := NewMatrix(len(pts), m)
			tour := &Tour{Order: polishedOrder(t, pts)}
			rt := new(Retour)
			if via == viaMatrix {
				rt = NewRetour(x)
			}
			retour := func() float64 { return rt.Improve(tour, m) }
			retour()
			if len(rt.fp.order) == 0 {
				continue // not at a fixed point
			}
			edited := slices.Delete(slices.Clone(tour.Order), pos, pos+1)
			if Improve(&Tour{Order: slices.Clone(edited)}, x) != 0 {
				continue // the re-tour moves, so edges far away may turn dirty
			}
			a, b := edited[pos+10], edited[pos+11]
			c, d := edited[pos+30], edited[pos+31]
			// Poison the oracle's matrix and the one the re-tour reads,
			// which for NewRetour are the same.
			for _, e := range [][2]int{{a, c}, {c, a}, {b, d}, {d, b}} {
				x.d[e[0]*x.n+e[1]] = 0
				rt.x.d[int(rt.slot[e[0]])*rt.x.n+int(rt.slot[e[1]])] = 0
			}
			tour.Order = slices.Delete(tour.Order, pos, pos+1)
			got, want := retour(), Improve(&Tour{Order: edited}, x)
			if want <= 0 {
				t.Fatalf("via %d, seed %d: Improve makes no move on the poisoned matrix", via, seed)
			}
			if got != 0 {
				t.Fatalf("via %d, seed %d: the re-tour saved %v, so it evaluated a pair over clean edges", via, seed, got)
			}
			proved = true
		}
		if !proved {
			t.Fatalf("via %d: no seed reached a fixed point with a quiet removal", via)
		}
	}
}
