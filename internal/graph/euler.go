package graph

import "fmt"

// Multigraph is an adjacency-list multigraph used for the Euler-circuit step
// of Christofides: the union of MST and matching edges can contain parallel
// edges, which a weight matrix cannot represent.
type Multigraph struct {
	n   int
	adj [][]halfEdge
	m   int // number of (undirected) edges
}

type halfEdge struct {
	to int
	id int // edge id shared by the twin half-edge
}

// NewMultigraph returns an empty multigraph on n vertices.
func NewMultigraph(n int) *Multigraph {
	return &Multigraph{n: n, adj: make([][]halfEdge, n)}
}

// AddEdge inserts an undirected edge between u and v; parallel edges and
// none-loops are permitted, self-loops are rejected.
func (m *Multigraph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop in multigraph")
	}
	id := m.m
	m.adj[u] = append(m.adj[u], halfEdge{to: v, id: id})
	m.adj[v] = append(m.adj[v], halfEdge{to: u, id: id})
	m.m++
}

// EulerCircuit returns an Eulerian circuit starting and ending at start as a
// vertex sequence (first == last), using Hierholzer's algorithm. It fails if
// any vertex touched by an edge has odd degree or if the edges are not
// connected.
func (m *Multigraph) EulerCircuit(start int) ([]int, error) {
	if m.m == 0 {
		return []int{start, start}[:1], nil
	}
	for v := 0; v < m.n; v++ {
		if len(m.adj[v])%2 != 0 {
			return nil, fmt.Errorf("graph: vertex %d has odd degree %d", v, len(m.adj[v]))
		}
	}
	if len(m.adj[start]) == 0 {
		return nil, fmt.Errorf("graph: start vertex %d has no incident edges", start)
	}
	used := make([]bool, m.m)
	next := make([]int, m.n) // per-vertex cursor into adj
	// Iterative Hierholzer.
	stack := []int{start}
	var circuit []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		advanced := false
		for next[v] < len(m.adj[v]) {
			he := m.adj[v][next[v]]
			next[v]++
			if used[he.id] {
				continue
			}
			used[he.id] = true
			stack = append(stack, he.to)
			advanced = true
			break
		}
		if !advanced {
			circuit = append(circuit, v)
			stack = stack[:len(stack)-1]
		}
	}
	for _, u := range used {
		if !u {
			return nil, fmt.Errorf("graph: edge set not connected, euler circuit covers only %d/%d edges", len(circuit)-1, m.m)
		}
	}
	// Hierholzer emits the circuit reversed; reverse for a forward walk
	// (irrelevant for correctness of an undirected circuit, but stable).
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	return circuit, nil
}
