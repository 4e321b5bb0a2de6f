package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	g := NewDense(3)
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Weight(0, 0) != 0 {
		t.Error("diagonal should be 0")
	}
	if g.HasEdge(0, 1) {
		t.Error("edges should start absent")
	}
	if g.HasEdge(1, 1) {
		t.Error("self edge must never exist")
	}
	g.SetWeight(0, 1, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be symmetric")
	}
	if g.Weight(1, 0) != 2.5 {
		t.Errorf("Weight(1,0) = %v", g.Weight(1, 0))
	}
}

func TestDensePanics(t *testing.T) {
	g := NewDense(2)
	assertPanics(t, "self-loop", func() { g.SetWeight(1, 1, 1) })
	assertPanics(t, "negative weight", func() { g.SetWeight(0, 1, -1) })
	assertPanics(t, "negative n", func() { NewDense(-1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestNewComplete(t *testing.T) {
	g := NewComplete(4, func(i, j int) float64 { return float64(i + j) })
	if g.Weight(1, 3) != 4 {
		t.Errorf("Weight(1,3) = %v", g.Weight(1, 3))
	}
}

func TestTotalWeight(t *testing.T) {
	if TotalWeight(nil) != 0 {
		t.Error("TotalWeight(nil) != 0")
	}
	if got := TotalWeight([]Edge{{0, 1, 2}, {1, 2, 3.5}}); got != 5.5 {
		t.Errorf("TotalWeight = %v", got)
	}
}

func randomMetricGraph(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][2]float64, n)
	for i := range xs {
		xs[i] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	return NewComplete(n, func(i, j int) float64 {
		dx, dy := xs[i][0]-xs[j][0], xs[i][1]-xs[j][1]
		return math.Sqrt(dx*dx + dy*dy)
	})
}

func TestMSTKnown(t *testing.T) {
	// Square with side 1 and diagonals sqrt2: MST weight = 3.
	g := NewDense(4)
	g.SetWeight(0, 1, 1)
	g.SetWeight(1, 2, 1)
	g.SetWeight(2, 3, 1)
	g.SetWeight(3, 0, 1)
	g.SetWeight(0, 2, math.Sqrt2)
	g.SetWeight(1, 3, math.Sqrt2)
	e, ok := MSTPrim(g, nil)
	if !ok || math.Abs(TotalWeight(e)-3) > 1e-12 {
		t.Errorf("MST = %v ok=%v", TotalWeight(e), ok)
	}
}

func TestMSTSubset(t *testing.T) {
	g := randomMetricGraph(30, 1)
	sub := []int{2, 5, 7, 11, 13}
	e, ok := MSTPrim(g, sub)
	if !ok || len(e) != 4 {
		t.Fatalf("subset MST: %d edges ok=%v", len(e), ok)
	}
	inSub := map[int]bool{}
	for _, v := range sub {
		inSub[v] = true
	}
	for _, ed := range e {
		if !inSub[ed.U] || !inSub[ed.V] {
			t.Errorf("MST edge %v leaves subset", ed)
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := NewDense(4)
	g.SetWeight(0, 1, 1)
	g.SetWeight(2, 3, 1)
	if _, ok := MSTPrim(g, nil); ok {
		t.Error("prim should report disconnected")
	}
}

func TestMSTTrivialSizes(t *testing.T) {
	g := NewDense(1)
	if e, ok := MSTPrim(g, nil); !ok || len(e) != 0 {
		t.Error("single vertex MST should be empty and connected")
	}
	if e, ok := MSTPrim(g, []int{}); !ok || len(e) != 0 {
		t.Error("empty subset MST should be empty")
	}
}

// HasEdge reports whether edge (i, j) is present (finite weight, i != j).
func (g *Dense) HasEdge(i, j int) bool {
	return i != j && !math.IsInf(g.w[i*g.n+j], 1)
}
