package tsp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"uavdc/internal/graph"
	"uavdc/internal/matching"
)

// denseGraph, newComplete and mstPrim are the weight-matrix graph and the
// Prim over it that Christofides built its spanning tree with before Prim
// read the metric directly (graph.Prim). They are the oracle for
// TestChristofidesMatchesDenseOracle.
type denseGraph struct {
	n int
	w []float64 // row-major n×n
}

func newDense(n int) *denseGraph {
	g := &denseGraph{n: n, w: make([]float64, n*n)}
	inf := math.Inf(1)
	for i := range g.w {
		g.w[i] = inf
	}
	for i := 0; i < n; i++ {
		g.w[i*n+i] = 0
	}
	return g
}

func newComplete(n int, dist func(i, j int) float64) *denseGraph {
	g := newDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.setWeight(i, j, dist(i, j))
		}
	}
	return g
}

func (g *denseGraph) weight(i, j int) float64 { return g.w[i*g.n+j] }

func (g *denseGraph) setWeight(i, j int, w float64) {
	if i == j {
		panic("graph: cannot set self-loop weight")
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %v on edge (%d,%d)", w, i, j))
	}
	g.w[i*g.n+j] = w
	g.w[j*g.n+i] = w
}

func mstPrim(g *denseGraph) ([]graph.Edge, bool) {
	k := g.n
	if k == 0 {
		return nil, true
	}
	inTree := make([]bool, k)
	bestW := make([]float64, k)
	bestTo := make([]int, k)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestTo[i] = -1
	}
	bestW[0] = 0
	edges := make([]graph.Edge, 0, k-1)
	for iter := 0; iter < k; iter++ {
		sel := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (sel < 0 || bestW[i] < bestW[sel]) {
				sel = i
			}
		}
		if sel < 0 || math.IsInf(bestW[sel], 1) {
			return nil, false
		}
		inTree[sel] = true
		if bestTo[sel] >= 0 {
			u, v := bestTo[sel], sel
			if u > v {
				u, v = v, u
			}
			edges = append(edges, graph.Edge{U: u, V: v, W: bestW[sel]})
		}
		for i := 0; i < k; i++ {
			if !inTree[i] {
				if w := g.weight(sel, i); w < bestW[i] {
					bestW[i] = w
					bestTo[i] = sel
				}
			}
		}
	}
	return edges, true
}

// denseChristofides is Christofides with its spanning tree taken from
// newComplete and mstPrim, the construction graph.Prim replaced.
func denseChristofides(items []int, m Metric) (Tour, error) {
	k := len(items)
	local := func(i, j int) float64 { return m(items[i], items[j]) }
	mstEdges, ok := mstPrim(newComplete(k, local))
	if !ok {
		return Tour{}, fmt.Errorf("disconnected")
	}
	deg := make([]int, k)
	for _, e := range mstEdges {
		deg[e.U]++
		deg[e.V]++
	}
	var odd []int
	for v, d := range deg {
		if d%2 == 1 {
			odd = append(odd, v)
		}
	}
	multi := graph.NewMultigraph(k)
	for _, e := range mstEdges {
		multi.AddEdge(e.U, e.V)
	}
	n := len(odd)
	cost := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				cost[i*n+j] = local(odd[i], odd[j])
			}
		}
	}
	mate, _, _, err := matching.PerfectAuto(n, func(i, j int) float64 { return cost[i*n+j] })
	if err != nil {
		return Tour{}, err
	}
	for u, v := range mate {
		if u < v {
			multi.AddEdge(odd[u], odd[v])
		}
	}
	circuit, err := multi.EulerCircuit(0)
	if err != nil {
		return Tour{}, err
	}
	visited := make([]bool, k)
	order := make([]int, 0, k)
	for _, v := range circuit {
		if !visited[v] {
			visited[v] = true
			order = append(order, items[v])
		}
	}
	return Tour{Order: order}, nil
}

// TestChristofidesMatchesDenseOracle holds Christofides, whose Prim reads
// the metric, to the dense-matrix construction at paper scale: 501
// uniform points on a 1 km square (the 500 sensors and the depot the
// baseline tours), over a matrix metric as the baseline passes it.
func TestChristofidesMatchesDenseOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pts := randPts(501, seed)
		items := allItems(len(pts))
		m := NewMatrix(len(pts), euclid(pts)).Metric()
		got, err := Christofides(items, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := denseChristofides(items, m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Order, want.Order) {
			t.Fatalf("seed %d: tour differs from the dense oracle", seed)
		}
	}
}
