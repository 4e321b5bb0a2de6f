package cluster

import (
	"math"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/rng"
)

// fourBlobs places tight groups near the four corners of a 100×100 square.
func fourBlobs() ([]geom.Point, []float64) {
	var pts []geom.Point
	var w []float64
	centers := []geom.Point{geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(10, 90), geom.Pt(90, 90)}
	r := rng.New(4).Rand()
	for _, c := range centers {
		for i := 0; i < 10; i++ {
			pts = append(pts, geom.Pt(c.X+r.Float64()*4-2, c.Y+r.Float64()*4-2))
			w = append(w, 1+r.Float64())
		}
	}
	return pts, w
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, w := fourBlobs()
	a, err := KMeans(pts, w, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 4 || len(a.Of) != len(pts) {
		t.Fatalf("assignment shape: K=%d len=%d", a.K, len(a.Of))
	}
	// Each blob of 10 consecutive points must share one cluster, and the
	// four blobs must use four distinct clusters.
	used := map[int]bool{}
	for blob := 0; blob < 4; blob++ {
		c := a.Of[blob*10]
		for i := 1; i < 10; i++ {
			if a.Of[blob*10+i] != c {
				t.Fatalf("blob %d split across clusters", blob)
			}
		}
		if used[c] {
			t.Fatalf("blob %d shares cluster %d with another blob", blob, c)
		}
		used[c] = true
	}
}

func TestKMeansErrors(t *testing.T) {
	pts, w := fourBlobs()
	if _, err := KMeans(pts, w, 0, rng.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(pts, w[:3], 2, rng.New(1)); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := KMeans(pts, append(append([]float64{}, w[:len(w)-1]...), -1), 2, rng.New(1)); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	// Empty input.
	a, err := KMeans(nil, nil, 3, rng.New(1))
	if err != nil || a.K != 3 || len(a.Of) != 0 {
		t.Errorf("empty: %+v, %v", a, err)
	}
	// k > n clamps.
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	a, err = KMeans(pts, nil, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 2 {
		t.Errorf("K clamped to %d, want 2", a.K)
	}
	// All points identical.
	same := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)}
	a, err = KMeans(same, nil, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Of {
		if c < 0 || c >= a.K {
			t.Fatal("invalid cluster id")
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, w := fourBlobs()
	a, _ := KMeans(pts, w, 4, rng.New(9))
	b, _ := KMeans(pts, w, 4, rng.New(9))
	for i := range a.Of {
		if a.Of[i] != b.Of[i] {
			t.Fatal("same seed gave different clustering")
		}
	}
}

func TestMembersAndSizes(t *testing.T) {
	pts, w := fourBlobs()
	a, _ := KMeans(pts, w, 4, rng.New(1))
	sizes := a.Sizes()
	var sum int
	for c := 0; c < a.K; c++ {
		m := a.Members(c)
		if len(m) != sizes[c] {
			t.Fatalf("cluster %d: Members %d vs Sizes %d", c, len(m), sizes[c])
		}
		sum += len(m)
		for i := 1; i < len(m); i++ {
			if m[i] <= m[i-1] {
				t.Fatal("Members not ascending")
			}
		}
	}
	if sum != len(pts) {
		t.Fatalf("members total %d, want %d", sum, len(pts))
	}
}

func TestSweepBalancesWeight(t *testing.T) {
	r := rng.New(17).Rand()
	var pts []geom.Point
	var w []float64
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Pt(r.Float64()*100, r.Float64()*100))
		w = append(w, 0.5+r.Float64())
	}
	pivot := geom.Pt(50, 50)
	const k = 4
	a, err := Sweep(pts, w, k, pivot)
	if err != nil {
		t.Fatal(err)
	}
	tw := a.TotalWeight(w)
	var total float64
	for _, v := range tw {
		total += v
	}
	per := total / k
	for c, v := range tw {
		if v < 0.5*per || v > 1.5*per {
			t.Errorf("sector %d weight %v far from balanced %v", c, v, per)
		}
	}
}

func TestSweepContiguity(t *testing.T) {
	// Points on a circle at known angles: contiguous sectors are easy to
	// verify exactly.
	pivot := geom.Pt(0, 0)
	var pts []geom.Point
	n := 16
	for i := 0; i < n; i++ {
		ang := -math.Pi + (float64(i)+0.5)*2*math.Pi/float64(n)
		pts = append(pts, geom.Pt(math.Cos(ang), math.Sin(ang)))
	}
	a, err := Sweep(pts, nil, 4, pivot)
	if err != nil {
		t.Fatal(err)
	}
	// Points were generated in angular order; cluster ids must be
	// non-decreasing and each sector must hold 4 points.
	for i := 1; i < n; i++ {
		if a.Of[i] < a.Of[i-1] {
			t.Fatalf("sector ids not contiguous: %v", a.Of)
		}
	}
	for c, s := range a.Sizes() {
		if s != 4 {
			t.Errorf("sector %d size %d, want 4 (%v)", c, s, a.Of)
		}
	}
}

func TestSweepEdgeCases(t *testing.T) {
	if _, err := Sweep(nil, nil, 0, geom.Pt(0, 0)); err == nil {
		t.Error("k=0 accepted")
	}
	a, err := Sweep(nil, nil, 3, geom.Pt(0, 0))
	if err != nil || len(a.Of) != 0 {
		t.Errorf("empty sweep: %+v %v", a, err)
	}
	pts := []geom.Point{geom.Pt(1, 0)}
	if _, err := Sweep(pts, []float64{1, 2}, 2, geom.Pt(0, 0)); err == nil {
		t.Error("weight mismatch accepted")
	}
}

// Sizes returns the number of points per cluster.
func (a *Assignment) Sizes() []int {
	sizes := make([]int, a.K)
	for _, c := range a.Of {
		sizes[c]++
	}
	return sizes
}

// TotalWeight returns the summed weight per cluster.
func (a *Assignment) TotalWeight(weights []float64) []float64 {
	out := make([]float64, a.K)
	for i, c := range a.Of {
		if weights == nil {
			out[c]++
		} else {
			out[c] += weights[i]
		}
	}
	return out
}
