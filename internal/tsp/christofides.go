package tsp

import (
	"fmt"

	"uavdc/internal/graph"
	"uavdc/internal/matching"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// CounterChristofidesRuns counts full Christofides constructions (tours of
// three or more items; trivial tours return without construction work).
const CounterChristofidesRuns = "tsp.christofides_runs"

// Trace span names emitted by the Christofides construction phases.
const (
	SpanChristofides         = "tsp/christofides"
	SpanChristofidesMST      = "tsp/christofides/mst"
	SpanChristofidesMatching = "tsp/christofides/matching"
	SpanChristofidesEuler    = "tsp/christofides/euler"
)

// Christofides computes a tour over items (a set of distinct indices) under
// metric m using Christofides' heuristic: minimum spanning tree, exact
// minimum-weight perfect matching on the odd-degree tree vertices, Eulerian
// circuit, and shortcutting repeated visits. On a metric instance the
// result is within 3/2 of the optimal tour (when the exact matcher is used;
// for more than matching.ExactThreshold odd vertices the greedy matcher is
// substituted and the formal guarantee is lost, though the subsequent 2-opt
// pass in practice closes the gap).
//
// Tours over 0, 1 or 2 items are returned directly. The returned tour
// begins at items[0]. An optional obs.Recorder counts runs and the
// matching solver used.
func Christofides(items []int, m Metric, rec ...obs.Recorder) (Tour, error) {
	r := obs.First(rec...)
	k := len(items)
	switch k {
	case 0:
		return Tour{}, nil
	case 1, 2:
		return Tour{Order: append([]int(nil), items...)}, nil
	}
	r.Counter(CounterChristofidesRuns).Inc()
	tr := trace.Of(r)
	end := tr.Begin(SpanChristofides, trace.Int("items", k))
	defer end()
	seen := make(map[int]bool, k)
	for _, v := range items {
		if seen[v] {
			return Tour{}, fmt.Errorf("tsp: duplicate item %d", v)
		}
		seen[v] = true
	}

	// Work in local indices 0..k-1.
	local := func(i, j int) float64 { return m(items[i], items[j]) }
	endMST := tr.Begin(SpanChristofidesMST)
	mstEdges, ok := graph.Prim(k, local)
	endMST()
	if !ok {
		return Tour{}, fmt.Errorf("tsp: metric yields disconnected graph")
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
	if len(odd) > 0 {
		endMatch := tr.Begin(SpanChristofidesMatching, trace.Int("odd", len(odd)))
		cost := func(i, j int) float64 { return local(odd[i], odd[j]) }
		mate, _, _, err := matching.PerfectAuto(len(odd), cost, r)
		if err != nil {
			endMatch()
			return Tour{}, fmt.Errorf("tsp: matching odd vertices: %w", err)
		}
		for u, v := range mate {
			if u < v {
				multi.AddEdge(odd[u], odd[v])
			}
		}
		endMatch()
	}

	endEuler := tr.Begin(SpanChristofidesEuler)
	circuit, err := multi.EulerCircuit(0)
	endEuler()
	if err != nil {
		return Tour{}, fmt.Errorf("tsp: euler circuit: %w", err)
	}

	// Shortcut repeated vertices (valid under the triangle inequality).
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
