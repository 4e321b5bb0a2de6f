package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randomPoints(n int, side float64, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

func TestIndexEmpty(t *testing.T) {
	idx := NewIndex(nil, 10)
	if idx.Len() != 0 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if got := idx.Within(Pt(0, 0), 100); len(got) != 0 {
		t.Errorf("Within on empty = %v", got)
	}
	if id, d := idx.Nearest(Pt(0, 0)); id != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty = %d, %v", id, d)
	}
}

func TestIndexWithinMatchesBruteForce(t *testing.T) {
	pts := randomPoints(400, 1000, 3)
	for _, cell := range []float64{0, 10, 50, 500} {
		idx := NewIndex(pts, cell)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 60; trial++ {
			q := Pt(rng.Float64()*1100-50, rng.Float64()*1100-50)
			r := rng.Float64() * 120
			got := idx.Within(q, r)
			var want []int
			for i, p := range pts {
				if p.Dist(q) <= r+1e-9 {
					want = append(want, i)
				}
			}
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("cell=%v trial=%d: got %d hits, want %d", cell, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cell=%v trial=%d: hit %d: %d vs %d", cell, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIndexWithinBoundary(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(50, 0), Pt(50.0001, 0)}
	idx := NewIndex(pts, 25)
	got := idx.Within(Pt(0, 0), 50)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("boundary inclusion wrong: %v", got)
	}
}

func TestIndexWithinAppendReuse(t *testing.T) {
	pts := randomPoints(100, 100, 5)
	idx := NewIndex(pts, 10)
	buf := make([]int, 0, 64)
	a := idx.WithinAppend(buf, Pt(50, 50), 30)
	n1 := len(a)
	a = idx.WithinAppend(a[:0], Pt(50, 50), 30)
	if len(a) != n1 {
		t.Errorf("reuse changed result: %d vs %d", len(a), n1)
	}
}

func TestIndexNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(300, 500, 11)
	idx := NewIndex(pts, 20)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		q := Pt(rng.Float64()*700-100, rng.Float64()*700-100)
		id, d := idx.Nearest(q)
		bestD := math.Inf(1)
		for _, p := range pts {
			if dd := p.Dist(q); dd < bestD {
				bestD = dd
			}
		}
		if math.Abs(d-bestD) > 1e-9 {
			t.Fatalf("trial %d: Nearest dist %v, brute force %v (id %d)", trial, d, bestD, id)
		}
	}
}

func TestIndexSinglePoint(t *testing.T) {
	idx := NewIndex([]Point{Pt(3, 4)}, 0)
	id, d := idx.Nearest(Pt(0, 0))
	if id != 0 || !almostEq(d, 5) {
		t.Errorf("Nearest = %d, %v", id, d)
	}
	if got := idx.Within(Pt(0, 0), 5); len(got) != 1 {
		t.Errorf("Within = %v", got)
	}
	if got := idx.Within(Pt(0, 0), 4.9); len(got) != 0 {
		t.Errorf("Within = %v", got)
	}
}

func TestIndexDuplicatePoints(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(1, 1), Pt(1, 1)}
	idx := NewIndex(pts, 1)
	if got := idx.Within(Pt(1, 1), 0); len(got) != 3 {
		t.Errorf("duplicates: %v", got)
	}
}

func BenchmarkIndexWithin(b *testing.B) {
	pts := randomPoints(5000, 1000, 17)
	idx := NewIndex(pts, 50)
	buf := make([]int, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = idx.WithinAppend(buf[:0], Pt(float64(i%1000), 500), 50)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	pts := randomPoints(5000, 1000, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(pts, 50)
	}
}
