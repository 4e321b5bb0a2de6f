// Package matching implements minimum-weight perfect matching on complete
// graphs with an exact O(n³) primal–dual blossom algorithm, plus a greedy
// fallback for very large inputs. Christofides' TSP heuristic (used by the
// paper's Algorithm 2/3 tour computation and by the evaluation benchmark)
// requires a minimum-weight perfect matching on the odd-degree vertices of
// the spanning tree; the 3/2 approximation guarantee holds only with the
// exact matching.
//
// The implementation follows the classic maximum-weight general-graph
// matching formulation (Galil's primal–dual method with blossom shrinking,
// in the O(n³) arrangement popularised by competitive-programming
// templates): vertices carry dual variables, tight edges form alternating
// forests, odd cycles are shrunk into blossom pseudo-vertices, and dual
// adjustments are chosen as the minimum slack across the forest. Weights
// are integers internally; MinWeightPerfect scales float64 costs to int64.
//
// The solver keeps no copy of the n×n integer weight table it is given: an
// edge between two real vertices is read from that table, and only the
// edges and membership rows of blossom ids in use are stored, allocated
// the first time a blossom takes that id.
package matching

import "slices"

// blossomSolver computes a maximum-weight matching on the complete graph
// over n vertices with non-negative integer edge weights. With all weights
// strictly positive and n even, the matching is perfect.
//
// Internally vertices are 1-based; ids n+1..2n denote blossoms.
//
// The edge table holds, for every pair of ids (u, v), the edge currently
// representing the connection between (pseudo-)vertices u and v:
// endpoints are real vertices, w>0 marks presence. Its real-vertex block
// (u, v ≤ n) is never written, so it is read from w; an entry involving a
// blossom lives in rows and cols (see at).
type blossomSolver struct {
	n  int // number of real vertices
	nx int // current max id in use (vertices + blossoms)

	w []int64 // w[(u-1)*n+v-1]: weight of the real edge (u, v), zero diagonal
	// rows[bl-n-1][x] is entry (bl, x) and cols[bl-n-1][x] is entry (x, bl),
	// for every x < bl (the diagonal is in rows). An entry between two
	// blossoms belongs to the larger id, so an id's row and column have
	// length bl+1 from the start and never grow.
	rows, cols [][]edge

	lab   []int64 // dual variables (doubled duals for blossoms)
	match []int   // matched partner (by representing edge head), 0 = unmatched
	slack []int   // slack[x]: real vertex u minimising delta(entry (u, x))
	st    []int   // st[x]: the top-level blossom containing x
	pa    []int   // parent edge tail in the alternating forest
	// flowerFrom[bl-n-1][x]: child of blossom bl containing real vertex x.
	flowerFrom [][]int32
	s          []int // forest label: -1 free, 0 even (outer), 1 odd (inner)
	vis        []int
	visGen     int
	flower     [][]int // cyclic child list of each blossom
	queue      []int   // FIFO of vertices to scan; queue[:qHead] are done
	qHead      int
}

type edge struct {
	u, v int32
	w    int64
}

// newBlossomSolver builds the solver over the n×n weight matrix w
// (row-major, symmetric, zero diagonal), which it reads in place.
func newBlossomSolver(n int, w []int64) *blossomSolver {
	m := 2*n + 1
	return &blossomSolver{
		n:      n,
		nx:     n,
		w:      w,
		lab:    make([]int64, m),
		match:  make([]int, m),
		slack:  make([]int, m),
		st:     make([]int, m),
		pa:     make([]int, m),
		s:      make([]int, m),
		vis:    make([]int, m),
		flower: make([][]int, m),
	}
}

// eDelta returns the slack of entry e, read through its endpoints. They
// are real vertices: addBlossom writes every entry of an id, from copies
// of real edges, when it first takes the id, and a reset keeps them.
func (b *blossomSolver) eDelta(e edge) int64 {
	return b.lab[e.u] + b.lab[e.v] - b.w[int(e.u-1)*b.n+int(e.v-1)]*2
}

// at returns the stored entry (u, v), of which u or v is a blossom.
func (b *blossomSolver) at(u, v int) *edge {
	if u >= v {
		return &b.rows[u-b.n-1][v]
	}
	return &b.cols[v-b.n-1][u]
}

// get returns the entry (u, v) of the edge table, for ids u, v ≥ 1.
func (b *blossomSolver) get(u, v int) edge {
	if u > b.n || v > b.n {
		return *b.at(u, v)
	}
	return edge{u: int32(u), v: int32(v), w: b.w[(u-1)*b.n+v-1]}
}

// slackDelta returns eDelta(get(u, x)) for a real vertex u ≥ 1 and any
// x ≥ 1, reading a real edge's weight once.
func (b *blossomSolver) slackDelta(u, x int) int64 {
	if x <= b.n {
		return b.lab[u] + b.lab[x] - b.w[(u-1)*b.n+x-1]*2
	}
	return b.eDelta(b.cols[x-b.n-1][u])
}

// from returns the flowerFrom row of blossom bl, indexed by real vertex.
func (b *blossomSolver) from(bl int) []int32 {
	return b.flowerFrom[bl-b.n-1]
}

func (b *blossomSolver) updateSlack(u, x int) {
	if b.slack[x] == 0 || b.slackDelta(u, x) < b.slackDelta(b.slack[x], x) {
		b.slack[x] = u
	}
}

func (b *blossomSolver) setSlack(x int) {
	b.slack[x] = 0
	for u := 1; u <= b.n; u++ {
		if b.get(u, x).w > 0 && b.st[u] != x && b.s[b.st[u]] == 0 {
			b.updateSlack(u, x)
		}
	}
}

func (b *blossomSolver) qPush(x int) {
	if x <= b.n {
		b.queue = append(b.queue, x)
		return
	}
	for _, p := range b.flower[x] {
		b.qPush(p)
	}
}

func (b *blossomSolver) qReset() {
	b.queue = b.queue[:0]
	b.qHead = 0
}

func (b *blossomSolver) setSt(x, v int) {
	b.st[x] = v
	if x > b.n {
		for _, p := range b.flower[x] {
			b.setSt(p, v)
		}
	}
}

// getPr rotates the blossom child list so traversal from xr has even parity,
// returning the index of xr.
func (b *blossomSolver) getPr(bl, xr int) int {
	pr := 0
	for i, f := range b.flower[bl] {
		if f == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		slices.Reverse(b.flower[bl][1:])
		return len(b.flower[bl]) - pr
	}
	return pr
}

func (b *blossomSolver) setMatch(u, v int) {
	e := b.get(u, v)
	b.match[u] = int(e.v)
	if u <= b.n {
		return
	}
	xr := int(b.from(u)[e.u])
	pr := b.getPr(u, xr)
	for i := 0; i < pr; i++ {
		b.setMatch(b.flower[u][i], b.flower[u][i^1])
	}
	b.setMatch(xr, v)
	// Rotate flower[u] left by pr, in place.
	fl := b.flower[u]
	slices.Reverse(fl[:pr])
	slices.Reverse(fl[pr:])
	slices.Reverse(fl)
}

func (b *blossomSolver) augment(u, v int) {
	for {
		xnv := b.st[b.match[u]]
		b.setMatch(u, v)
		if xnv == 0 {
			return
		}
		b.setMatch(xnv, b.st[b.pa[xnv]])
		u, v = b.st[b.pa[xnv]], xnv
	}
}

func (b *blossomSolver) getLCA(u, v int) int {
	b.visGen++
	t := b.visGen
	for u != 0 || v != 0 {
		if u != 0 {
			if b.vis[u] == t {
				return u
			}
			b.vis[u] = t
			u = b.st[b.match[u]]
			if u != 0 {
				u = b.st[b.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (b *blossomSolver) addBlossom(u, lca, v int) {
	bl := b.n + 1
	for bl <= b.nx && b.st[bl] != 0 {
		bl++
	}
	if bl > b.nx {
		// First use of id bl: its entries against every id up to bl.
		b.nx++
		rc := make([]edge, 2*(bl+1))
		b.rows = append(b.rows, rc[:bl+1:bl+1])
		b.cols = append(b.cols, rc[bl+1:])
		b.flowerFrom = append(b.flowerFrom, make([]int32, b.n+1))
	}
	b.lab[bl] = 0
	b.s[bl] = 0
	b.match[bl] = b.match[lca]
	b.flower[bl] = b.flower[bl][:0]
	b.flower[bl] = append(b.flower[bl], lca)
	for x := u; x != lca; {
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], x, y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	slices.Reverse(b.flower[bl][1:])
	for x := v; x != lca; {
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], x, y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	b.setSt(bl, bl)
	for x := 1; x <= b.nx; x++ {
		b.at(bl, x).w = 0
		b.at(x, bl).w = 0
	}
	ff := b.from(bl)
	clear(ff)
	for _, xs := range b.flower[bl] {
		for x := 1; x <= b.nx; x++ {
			if e := b.at(bl, x); e.w == 0 || b.eDelta(b.get(xs, x)) < b.eDelta(*e) {
				*e = b.get(xs, x)
				*b.at(x, bl) = b.get(x, xs)
			}
		}
		if xs <= b.n {
			ff[xs] = int32(xs) // a real vertex is its own only member
			continue
		}
		for x, f := range b.from(xs) {
			if f != 0 {
				ff[x] = int32(xs)
			}
		}
	}
	b.setSlack(bl)
}

func (b *blossomSolver) expandBlossom(bl int) {
	for _, f := range b.flower[bl] {
		b.setSt(f, f)
	}
	xr := int(b.from(bl)[b.get(bl, b.pa[bl]).u])
	pr := b.getPr(bl, xr)
	for i := 0; i < pr; i += 2 {
		xs := b.flower[bl][i]
		xns := b.flower[bl][i+1]
		b.pa[xs] = int(b.get(xns, xs).u)
		b.s[xs] = 1
		b.s[xns] = 0
		b.slack[xs] = 0
		b.setSlack(xns)
		b.qPush(xns)
	}
	b.s[xr] = 1
	b.pa[xr] = b.pa[bl]
	for i := pr + 1; i < len(b.flower[bl]); i++ {
		xs := b.flower[bl][i]
		b.s[xs] = -1
		b.setSlack(xs)
	}
	b.st[bl] = 0
}

func (b *blossomSolver) onFoundEdge(e edge) bool {
	u, v := b.st[e.u], b.st[e.v]
	switch b.s[v] {
	case -1:
		b.pa[v] = int(e.u)
		b.s[v] = 1
		nu := b.st[b.match[v]]
		b.slack[v] = 0
		b.slack[nu] = 0
		b.s[nu] = 0
		b.qPush(nu)
	case 0:
		lca := b.getLCA(u, v)
		if lca == 0 {
			b.augment(u, v)
			b.augment(v, u)
			return true
		}
		b.addBlossom(u, lca, v)
	}
	return false
}

const infWeight = int64(1) << 62

// matchRound grows alternating forests from all free vertices and returns
// true if an augmenting path was found and applied.
func (b *blossomSolver) matchRound() bool {
	n := b.n
	for i := 1; i <= b.nx; i++ {
		b.s[i] = -1
		b.slack[i] = 0
	}
	b.qReset()
	for x := 1; x <= b.nx; x++ {
		if b.st[x] == x && b.match[x] == 0 {
			b.pa[x] = 0
			b.s[x] = 0
			b.qPush(x)
		}
	}
	if len(b.queue) == 0 {
		return false
	}
	for {
		for b.qHead < len(b.queue) {
			u := b.queue[b.qHead]
			b.qHead++
			if b.s[b.st[u]] == 1 {
				continue
			}
			wu := b.w[(u-1)*n : u*n]
			for v := 1; v <= n; v++ {
				if w := wu[v-1]; w > 0 && b.st[u] != b.st[v] {
					if b.lab[u]+b.lab[v]-w*2 == 0 {
						if b.onFoundEdge(edge{u: int32(u), v: int32(v), w: w}) {
							return true
						}
					} else {
						b.updateSlack(u, b.st[v])
					}
				}
			}
		}
		d := infWeight
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl && b.s[bl] == 1 {
				if v := b.lab[bl] / 2; v < d {
					d = v
				}
			}
		}
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 {
				switch b.s[x] {
				case -1:
					if v := b.slackDelta(b.slack[x], x); v < d {
						d = v
					}
				case 0:
					if v := b.slackDelta(b.slack[x], x) / 2; v < d {
						d = v
					}
				}
			}
		}
		for u := 1; u <= b.n; u++ {
			switch b.s[b.st[u]] {
			case 0:
				if b.lab[u] <= d {
					return false // dual hit zero: no augmenting path exists
				}
				b.lab[u] -= d
			case 1:
				b.lab[u] += d
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl {
				switch b.s[bl] {
				case 0:
					b.lab[bl] += 2 * d
				case 1:
					b.lab[bl] -= 2 * d
				}
			}
		}
		b.qReset()
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 && b.st[b.slack[x]] != x && b.slackDelta(b.slack[x], x) == 0 {
				if b.onFoundEdge(b.get(b.slack[x], x)) {
					return true
				}
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl && b.s[bl] == 1 && b.lab[bl] == 0 {
				b.expandBlossom(bl)
			}
		}
	}
}

// solve runs the algorithm and returns mate (0-based, -1 = unmatched).
func (b *blossomSolver) solve() []int {
	for u := 0; u <= 2*b.n; u++ {
		b.st[u] = u
		b.flower[u] = b.flower[u][:0]
		b.match[u] = 0
	}
	var wMax int64
	for _, w := range b.w {
		if w > wMax {
			wMax = w
		}
	}
	for u := 1; u <= b.n; u++ {
		b.lab[u] = wMax
	}
	for b.matchRound() {
	}
	mate := make([]int, b.n)
	for u := 1; u <= b.n; u++ {
		if b.match[u] != 0 {
			mate[u-1] = b.match[u] - 1
		} else {
			mate[u-1] = -1
		}
	}
	return mate
}

// maxWeight computes a maximum-weight matching over the n×n integer weight
// matrix w (row-major, symmetric, zero diagonal, non-negative entries;
// zero means "no edge"). It returns mate with mate[u] = v or -1.
func maxWeight(n int, w []int64) []int {
	if n == 0 {
		return nil
	}
	return newBlossomSolver(n, w).solve()
}
