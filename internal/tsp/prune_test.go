package tsp

import (
	"bytes"
	"maps"
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

// retourRun configures one differential run of a Pruner against Improve.
type retourRun struct {
	pts   []geom.Point
	start []int
	// pick chooses the next removal position on a tour of n ≥ 1 items.
	pick func(n int) int
	// rotate, if set, names the item both tours are rotated to after
	// every re-tour.
	rotate func(order []int) int
	// metricOnly builds the Pruner without a matrix.
	metricOnly bool
}

// retourStats counts how the Pruner's interior removals from a fixed
// point went: certified ones skipped the sweeps, improving ones found a
// move at the new edge and ran the full Improve.
type retourStats struct {
	certified, improving int
}

// check removes items until one is left, holding the Pruner to Improve on
// the same tour after every step: the same order and the same saving
// bit for bit, then the same counters and stripped span stream.
func (r retourRun) check(t testing.TB) retourStats {
	t.Helper()
	m := euclid(r.pts)
	x := NewMatrix(len(r.pts), m)
	got, want := newObserved(), newObserved()
	px := x
	if r.metricOnly {
		px = nil
	}
	pr := NewPruner(Tour{Order: slices.Clone(r.start)}, px, m)
	ref := Tour{Order: slices.Clone(r.start)}
	step := func(what string, gotSaved, wantSaved float64) {
		t.Helper()
		if !slices.Equal(pr.Tour.Order, ref.Order) {
			t.Fatalf("%s: order %v, Improve gives %v", what, pr.Tour.Order, ref.Order)
		}
		if gotSaved != wantSaved {
			t.Fatalf("%s: saved %v, Improve saves %v", what, gotSaved, wantSaved)
		}
		if r.rotate != nil {
			v := r.rotate(ref.Order)
			pr.RotateTo(v)
			ref.RotateTo(v)
		}
	}
	step("initial polish", pr.Improve(got.rec), Improve(&ref, x, want.rec))
	var st retourStats
	for ref.Len() > 1 {
		n := ref.Len()
		pos := r.pick(n)
		if !r.metricOnly && pr.fixed && pos > 0 && pos < n-1 {
			after := Pruner{Tour: Tour{Order: slices.Delete(slices.Clone(ref.Order), pos, pos+1)}, x: x}
			if after.improvesAt(pos - 1) {
				st.improving++
			} else {
				st.certified++
			}
		}
		gotSaved := pr.RemoveAt(pos, got.rec)
		ref.Order = slices.Delete(ref.Order, pos, pos+1)
		step("removal", gotSaved, Improve(&ref, x, want.rec))
	}
	step("final polish", pr.Improve(got.rec), Improve(&ref, x, want.rec))
	if g, w := got.reg.Snapshot().Counters, want.reg.Snapshot().Counters; !maps.Equal(g, w) {
		t.Fatalf("counters %v, Improve records %v", g, w)
	}
	if g, w := got.stripped(t), want.stripped(t); g != w {
		t.Fatalf("span stream differs:\n%s\nImprove emits:\n%s", g, w)
	}
	return st
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
		st := retourRun{pts: pts, start: start, pick: r.Intn}.check(t)
		total.certified += st.certified
		total.improving += st.improving
	}
	// Both branches must run, or the test proves nothing about one.
	if total.certified == 0 || total.improving == 0 {
		t.Fatalf("certified %d, improving %d: a branch never ran", total.certified, total.improving)
	}
}

// TestRetourMatchesImproveAtTheWrap removes at the first and the last
// position, where the wrap edge changes and the certificate must not be
// used, alternating with interior removals.
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
	retourRun{pts: pts, start: polishedOrder(t, pts), pick: pick}.check(t)
}

// TestRetourMatchesImproveThroughTinyTours shrinks tours through 4, 3 and
// 2 items, where the sweeps stop recording passes.
func TestRetourMatchesImproveThroughTinyTours(t *testing.T) {
	for n := 4; n <= 7; n++ {
		for seed := int64(0); seed < 6; seed++ {
			pts := randPts(n, 40+seed)
			r := rand.New(rand.NewSource(seed))
			retourRun{pts: pts, start: polishedOrder(t, pts), pick: r.Intn}.check(t)
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
		retourRun{pts: pts, start: r.Perm(len(pts)), pick: r.Intn}.check(t)
	}
}

// TestRetourMatchesImproveAfterIterationCap starts from a tour on which
// Improve stopped at its iteration cap, so the tour is not a fixed point
// and the next removal must run the full Improve.
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
		retourRun{pts: pts, start: start, pick: r.Intn}.check(t)
		return
	}
	t.Fatal("no seed made Improve stop at its iteration cap")
}

// TestRetourMatchesImproveWithRotation rotates both tours after every
// re-tour: to the first item, as BenchmarkCoverage keeps its depot first,
// and to a random item. A rotation that moves the wrap must drop the
// certificate.
func TestRetourMatchesImproveWithRotation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(60, 300+seed)
		start := polishedOrder(t, pts)
		depot := start[0]
		pick := func(n int) int { return 1 + r.Intn(n-1) }
		first := func([]int) int { return depot }
		retourRun{pts: pts, start: start, pick: pick, rotate: first}.check(t)
		anywhere := func(order []int) int { return order[r.Intn(len(order))] }
		retourRun{pts: pts, start: start, pick: r.Intn, rotate: anywhere}.check(t)
	}
}

// TestRetourMatchesImproveWithoutMatrix covers the Metric-only Pruner,
// which re-tours through ImproveMetric every time.
func TestRetourMatchesImproveWithoutMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPts(40, 5)
	retourRun{pts: pts, start: polishedOrder(t, pts), pick: r.Intn, metricOnly: true}.check(t)
}

func FuzzRetourMatchesImprove(f *testing.F) {
	f.Add(int64(1), uint8(40), false, false)
	f.Add(int64(2), uint8(9), true, false)
	f.Add(int64(3), uint8(70), false, true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, dupes, rotate bool) {
		n := 2 + int(size)%90
		r := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			if dupes {
				pts[i] = geom.Pt(float64(r.Intn(5)), float64(r.Intn(5)))
			} else {
				pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
			}
		}
		start := r.Perm(n)
		if seed%2 == 0 {
			start = polishedOrder(t, pts)
		}
		run := retourRun{pts: pts, start: start, pick: r.Intn}
		if rotate {
			run.rotate = func(order []int) int { return order[r.Intn(len(order))] }
		}
		run.check(t)
	})
}

// BenchmarkImprove polishes a 500-item Christofides tour on a matrix.
func BenchmarkImprove(b *testing.B) {
	pts := randPts(500, 11)
	x := NewMatrix(len(pts), euclid(pts))
	start := polishedOrder(b, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tour := Tour{Order: slices.Clone(start)}
		Improve(&tour, x)
	}
}

// TestRotationDropsCertificate rotates polished tours to every item. A
// rotation can expose an improving move the last sweeps never evaluated
// (an Or-opt segment that crossed the wrap), so the Pruner's next Improve
// must be the real one; the test requires such rotations to occur.
func TestRotationDropsCertificate(t *testing.T) {
	exposed := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := randPts(6+r.Intn(30), 700+seed)
		x := NewMatrix(len(pts), euclid(pts))
		pr := NewPruner(Tour{Order: r.Perm(len(pts))}, x, nil)
		pr.Improve()
		if !pr.fixed {
			continue
		}
		polished := pr.Tour.Clone()
		for _, v := range polished.Order {
			pr := NewPruner(polished.Clone(), x, nil)
			pr.fixed = true
			ref := polished.Clone()
			pr.RotateTo(v)
			ref.RotateTo(v)
			got, want := pr.Improve(), Improve(&ref, x)
			if got != want || !slices.Equal(pr.Tour.Order, ref.Order) {
				t.Fatalf("seed %d, rotated to %d: saved %v order %v; Improve saves %v order %v",
					seed, v, got, pr.Tour.Order, want, ref.Order)
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
