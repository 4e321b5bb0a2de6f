// Package graph implements the weighted-graph machinery the tour planners
// are built on: a dense symmetric weight matrix (the auxiliary graphs of the
// paper are complete metric graphs), Prim's minimum spanning tree, and
// Eulerian circuits (Hierholzer).
package graph

import (
	"fmt"
	"math"
)

// Dense is a complete undirected graph on n vertices stored as a symmetric
// weight matrix. A weight of +Inf marks an absent edge; the diagonal is
// always zero.
type Dense struct {
	n int
	w []float64 // row-major n×n
}

// NewDense returns a graph on n vertices with all off-diagonal weights +Inf.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Dense{n: n, w: make([]float64, n*n)}
	inf := math.Inf(1)
	for i := range g.w {
		g.w[i] = inf
	}
	for i := 0; i < n; i++ {
		g.w[i*n+i] = 0
	}
	return g
}

// NewComplete builds a complete graph whose edge weights come from dist.
// dist must be symmetric in its arguments for the graph to be undirected;
// this is not checked.
func NewComplete(n int, dist func(i, j int) float64) *Dense {
	g := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetWeight(i, j, dist(i, j))
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Dense) N() int { return g.n }

// Weight returns the weight of edge (i, j); zero when i == j, +Inf when the
// edge is absent.
func (g *Dense) Weight(i, j int) float64 { return g.w[i*g.n+j] }

// SetWeight sets the weight of the undirected edge (i, j). Setting a
// diagonal entry or a negative weight panics: the energy semantics of the
// planners require non-negative costs.
func (g *Dense) SetWeight(i, j int, w float64) {
	if i == j {
		panic("graph: cannot set self-loop weight")
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %v on edge (%d,%d)", w, i, j))
	}
	g.w[i*g.n+j] = w
	g.w[j*g.n+i] = w
}

// Edge is an undirected weighted edge with U < V by convention.
type Edge struct {
	U, V int
	W    float64
}

// TotalWeight returns the sum of the weights of the given edges.
//
//uavdc:allow deadexport test oracle: the graph MST tests and the tsp MST lower-bound oracle weigh spanning trees with it
func TotalWeight(edges []Edge) float64 {
	var sum float64
	for _, e := range edges {
		sum += e.W
	}
	return sum
}
