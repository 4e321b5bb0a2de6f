package graph

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func TestEulerEmpty(t *testing.T) {
	m := NewMultigraph(3)
	circ, err := m.EulerCircuit(0)
	if err != nil || len(circ) != 1 || circ[0] != 0 {
		t.Errorf("empty circuit = %v, %v", circ, err)
	}
}

func TestEulerTriangle(t *testing.T) {
	m := NewMultigraph(3)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	m.AddEdge(2, 0)
	circ, err := m.EulerCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	verifyCircuit(t, m, circ, 0)
}

func TestEulerParallelEdges(t *testing.T) {
	m := NewMultigraph(2)
	m.AddEdge(0, 1)
	m.AddEdge(0, 1) // parallel, both endpoints even
	circ, err := m.EulerCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	verifyCircuit(t, m, circ, 0)
}

func TestEulerOddDegree(t *testing.T) {
	m := NewMultigraph(3)
	m.AddEdge(0, 1)
	if _, err := m.EulerCircuit(0); err == nil {
		t.Error("odd degree should fail")
	}
}

func TestEulerDisconnectedEdges(t *testing.T) {
	m := NewMultigraph(6)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	m.AddEdge(2, 0)
	m.AddEdge(3, 4)
	m.AddEdge(4, 5)
	m.AddEdge(5, 3)
	if _, err := m.EulerCircuit(0); err == nil {
		t.Error("two components should fail")
	}
}

func TestEulerStartWithoutEdges(t *testing.T) {
	m := NewMultigraph(4)
	m.AddEdge(1, 2)
	m.AddEdge(2, 3)
	m.AddEdge(3, 1)
	if _, err := m.EulerCircuit(0); err == nil {
		t.Error("start vertex with no edges should fail")
	}
}

func TestEulerSelfLoopPanics(t *testing.T) {
	m := NewMultigraph(2)
	defer func() {
		if recover() == nil {
			t.Error("self loop should panic")
		}
	}()
	m.AddEdge(1, 1)
}

// TestEulerRandomEvenGraphs builds random connected even-degree multigraphs
// by unioning random closed walks, then checks Hierholzer covers every edge
// exactly once.
func TestEulerRandomEvenGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		m := NewMultigraph(n)
		// One long closed walk through random vertices keeps everything
		// connected and all degrees even.
		walkLen := 2 + rng.Intn(20)
		cur := 0
		for i := 0; i < walkLen; i++ {
			nxt := rng.Intn(n)
			for nxt == cur {
				nxt = rng.Intn(n)
			}
			m.AddEdge(cur, nxt)
			cur = nxt
		}
		if cur != 0 {
			m.AddEdge(cur, 0)
		}
		circ, err := m.EulerCircuit(0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verifyCircuit(t, m, circ, 0)
	}
}

// verifyCircuit checks circ starts and ends at start, uses every edge of m
// exactly once, and every consecutive pair is an actual edge.
func verifyCircuit(t *testing.T, m *Multigraph, circ []int, start int) {
	t.Helper()
	if len(circ) != m.m+1 {
		t.Fatalf("circuit length %d, want %d", len(circ), m.m+1)
	}
	if circ[0] != start || circ[len(circ)-1] != start {
		t.Fatalf("circuit endpoints %d..%d, want %d", circ[0], circ[len(circ)-1], start)
	}
	// Count available parallel edges between each unordered pair.
	avail := map[[2]int]int{}
	for v := 0; v < m.n; v++ {
		for _, he := range m.adj[v] {
			if v < he.to {
				avail[[2]int{v, he.to}]++
			}
		}
	}
	for i := 1; i < len(circ); i++ {
		u, v := circ[i-1], circ[i]
		if u > v {
			u, v = v, u
		}
		if avail[[2]int{u, v}] == 0 {
			t.Fatalf("step %d reuses or invents edge (%d,%d)", i, u, v)
		}
		avail[[2]int{u, v}]--
	}
	for _, k := range slices.SortedFunc(maps.Keys(avail), func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	}) {
		if c := avail[k]; c != 0 {
			t.Fatalf("edge %v not fully used (%d left)", k, c)
		}
	}
}
