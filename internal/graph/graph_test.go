package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestTotalWeight(t *testing.T) {
	if TotalWeight(nil) != 0 {
		t.Error("TotalWeight(nil) != 0")
	}
	if got := TotalWeight([]Edge{{0, 1, 2}, {1, 2, 3.5}}); got != 5.5 {
		t.Errorf("TotalWeight = %v", got)
	}
}

// upper forwards to w and fails the test if Prim ever reads a pair with
// i >= j: Prim's contract is to read the upper triangle only.
func upper(t *testing.T, w func(i, j int) float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i >= j {
			t.Fatalf("Prim read w(%d, %d), want i < j", i, j)
		}
		return w(i, j)
	}
}

// table is a weight function over ordered pairs listed in w; absent pairs
// weigh +Inf.
func table(w map[[2]int]float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		if d, ok := w[[2]int{i, j}]; ok {
			return d
		}
		return math.Inf(1)
	}
}

func randomMetric(n int, seed int64) func(i, j int) float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][2]float64, n)
	for i := range xs {
		xs[i] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	return func(i, j int) float64 {
		dx, dy := xs[i][0]-xs[j][0], xs[i][1]-xs[j][1]
		return math.Sqrt(dx*dx + dy*dy)
	}
}

func TestMSTKnown(t *testing.T) {
	// Square with side 1 and diagonals sqrt2: MST weight = 3.
	w := upper(t, table(map[[2]int]float64{
		{0, 1}: 1, {1, 2}: 1, {2, 3}: 1, {0, 3}: 1,
		{0, 2}: math.Sqrt2, {1, 3}: math.Sqrt2,
	}))
	e, ok := Prim(4, w)
	if !ok || math.Abs(TotalWeight(e)-3) > 1e-12 {
		t.Errorf("MST = %v ok=%v", TotalWeight(e), ok)
	}
}

// TestMSTSubset spans a vertex subset of a larger metric by reindexing it
// through the weight function.
func TestMSTSubset(t *testing.T) {
	metric := randomMetric(30, 1)
	sub := []int{2, 5, 7, 11, 13}
	e, ok := Prim(len(sub), upper(t, func(i, j int) float64 { return metric(sub[i], sub[j]) }))
	if !ok || len(e) != 4 {
		t.Fatalf("subset MST: %d edges ok=%v", len(e), ok)
	}
	for _, ed := range e {
		if ed.U >= ed.V || ed.V >= len(sub) {
			t.Errorf("MST edge %v is not an ordered pair of local indices", ed)
		}
	}
	// Every subset vertex is touched by the tree.
	deg := make([]int, len(sub))
	for _, ed := range e {
		deg[ed.U]++
		deg[ed.V]++
	}
	for v, d := range deg {
		if d == 0 {
			t.Errorf("vertex %d left out of the tree", v)
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	w := upper(t, table(map[[2]int]float64{{0, 1}: 1, {2, 3}: 1}))
	if _, ok := Prim(4, w); ok {
		t.Error("prim should report disconnected")
	}
}

func TestMSTTrivialSizes(t *testing.T) {
	w := upper(t, table(nil))
	if e, ok := Prim(1, w); !ok || len(e) != 0 {
		t.Error("single vertex MST should be empty and connected")
	}
	if e, ok := Prim(0, w); !ok || len(e) != 0 {
		t.Error("empty MST should be empty")
	}
}

// TestMSTCutProperty checks optimality on random metrics: every non-tree
// edge weighs at least the heaviest tree edge on the path it closes.
func TestMSTCutProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := 12 + int(seed)*7
		metric := randomMetric(n, seed)
		e, ok := Prim(n, upper(t, metric))
		if !ok || len(e) != n-1 {
			t.Fatalf("seed %d: %d edges ok=%v", seed, len(e), ok)
		}
		adj := make([][]Edge, n)
		for _, ed := range e {
			adj[ed.U] = append(adj[ed.U], ed)
			adj[ed.V] = append(adj[ed.V], ed)
		}
		for u := 0; u < n; u++ {
			// Heaviest edge on the tree path from u to every v.
			heaviest := make([]float64, n)
			seen := make([]bool, n)
			stack := []int{u}
			seen[u] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, ed := range adj[x] {
					y := ed.U + ed.V - x
					if !seen[y] {
						seen[y] = true
						heaviest[y] = max(heaviest[x], ed.W)
						stack = append(stack, y)
					}
				}
			}
			for v := u + 1; v < n; v++ {
				if metric(u, v) < heaviest[v] {
					t.Fatalf("seed %d: edge (%d,%d) weighs %v, below path maximum %v", seed, u, v, metric(u, v), heaviest[v])
				}
			}
		}
	}
}
