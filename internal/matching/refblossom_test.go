package matching

// This file keeps the blossom solver as it stood before its tables were
// flattened, verbatim apart from its identifiers (ref prefix): the
// [][]edgeUV table with int endpoints and the [][]int flowerFrom. It is
// the oracle for TestFlatSolverMatchesReference, which holds the flat
// solver to identical mates.

// maxBlossom computes a maximum-weight matching on the complete graph over
// n vertices with non-negative integer edge weights w (n×n, symmetric,
// zero diagonal). It returns mate[u] = v (or -1) for the matched partner of
// each vertex. With all weights strictly positive and n even, the matching
// is perfect.
//
// Internally vertices are 1-based; ids n+1..2n denote blossoms.
type refBlossomSolver struct {
	n  int // number of real vertices
	nx int // current max id in use (vertices + blossoms)

	// g[u][v] is the edge currently representing the connection between
	// (pseudo-)vertices u and v: endpoints are real vertices, w>0 marks
	// presence.
	g [][]refEdgeUV

	lab        []int64 // dual variables (doubled duals for blossoms)
	match      []int   // matched partner (by representing edge head), 0 = unmatched
	slack      []int   // slack[x]: real vertex u minimising delta(g[u][x])
	st         []int   // st[x]: the top-level blossom containing x
	pa         []int   // parent edge tail in the alternating forest
	flowerFrom [][]int // flowerFrom[b][x]: child of b containing real vertex x
	s          []int   // forest label: -1 free, 0 even (outer), 1 odd (inner)
	vis        []int
	visGen     int
	flower     [][]int // cyclic child list of each blossom
	queue      []int
}

type refEdgeUV struct {
	u, v int
	w    int64
}

func newRefBlossomSolver(n int, w [][]int64) *refBlossomSolver {
	m := 2*n + 1
	b := &refBlossomSolver{
		n:          n,
		nx:         n,
		g:          make([][]refEdgeUV, m),
		lab:        make([]int64, m),
		match:      make([]int, m),
		slack:      make([]int, m),
		st:         make([]int, m),
		pa:         make([]int, m),
		flowerFrom: make([][]int, m),
		s:          make([]int, m),
		vis:        make([]int, m),
		flower:     make([][]int, m),
	}
	for i := 0; i < m; i++ {
		b.g[i] = make([]refEdgeUV, m)
		b.flowerFrom[i] = make([]int, n+1)
	}
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			b.g[u][v] = refEdgeUV{u: u, v: v, w: 0}
			if u != v {
				b.g[u][v].w = w[u-1][v-1]
			}
		}
	}
	return b
}

func (b *refBlossomSolver) eDelta(e refEdgeUV) int64 {
	return b.lab[e.u] + b.lab[e.v] - b.g[e.u][e.v].w*2
}

func (b *refBlossomSolver) updateSlack(u, x int) {
	if b.slack[x] == 0 || b.eDelta(b.g[u][x]) < b.eDelta(b.g[b.slack[x]][x]) {
		b.slack[x] = u
	}
}

func (b *refBlossomSolver) setSlack(x int) {
	b.slack[x] = 0
	for u := 1; u <= b.n; u++ {
		if b.g[u][x].w > 0 && b.st[u] != x && b.s[b.st[u]] == 0 {
			b.updateSlack(u, x)
		}
	}
}

func (b *refBlossomSolver) qPush(x int) {
	if x <= b.n {
		b.queue = append(b.queue, x)
		return
	}
	for _, p := range b.flower[x] {
		b.qPush(p)
	}
}

func (b *refBlossomSolver) setSt(x, v int) {
	b.st[x] = v
	if x > b.n {
		for _, p := range b.flower[x] {
			b.setSt(p, v)
		}
	}
}

// getPr rotates the blossom child list so traversal from xr has even parity,
// returning the index of xr.
func (b *refBlossomSolver) getPr(bl, xr int) int {
	pr := 0
	for i, f := range b.flower[bl] {
		if f == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// reverse flower[bl][1:]
		fl := b.flower[bl]
		for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
			fl[i], fl[j] = fl[j], fl[i]
		}
		return len(fl) - pr
	}
	return pr
}

func (b *refBlossomSolver) setMatch(u, v int) {
	b.match[u] = b.g[u][v].v
	if u <= b.n {
		return
	}
	e := b.g[u][v]
	xr := b.flowerFrom[u][e.u]
	pr := b.getPr(u, xr)
	for i := 0; i < pr; i++ {
		b.setMatch(b.flower[u][i], b.flower[u][i^1])
	}
	b.setMatch(xr, v)
	// rotate flower[u] left by pr
	fl := b.flower[u]
	rot := append(append([]int{}, fl[pr:]...), fl[:pr]...)
	copy(fl, rot)
}

func (b *refBlossomSolver) augment(u, v int) {
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

func (b *refBlossomSolver) getLCA(u, v int) int {
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

func (b *refBlossomSolver) addBlossom(u, lca, v int) {
	bl := b.n + 1
	for bl <= b.nx && b.st[bl] != 0 {
		bl++
	}
	if bl > b.nx {
		b.nx++
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
	// reverse flower[bl][1:]
	fl := b.flower[bl]
	for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
		fl[i], fl[j] = fl[j], fl[i]
	}
	for x := v; x != lca; {
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], x, y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	b.setSt(bl, bl)
	for x := 1; x <= b.nx; x++ {
		b.g[bl][x].w = 0
		b.g[x][bl].w = 0
	}
	for x := 1; x <= b.n; x++ {
		b.flowerFrom[bl][x] = 0
	}
	for _, xs := range b.flower[bl] {
		for x := 1; x <= b.nx; x++ {
			if b.g[bl][x].w == 0 || b.eDelta(b.g[xs][x]) < b.eDelta(b.g[bl][x]) {
				b.g[bl][x] = b.g[xs][x]
				b.g[x][bl] = b.g[x][xs]
			}
		}
		for x := 1; x <= b.n; x++ {
			if b.flowerFrom[xs][x] != 0 {
				b.flowerFrom[bl][x] = xs
			}
		}
	}
	b.setSlack(bl)
}

func (b *refBlossomSolver) expandBlossom(bl int) {
	for _, f := range b.flower[bl] {
		b.setSt(f, f)
	}
	xr := b.flowerFrom[bl][b.g[bl][b.pa[bl]].u]
	pr := b.getPr(bl, xr)
	for i := 0; i < pr; i += 2 {
		xs := b.flower[bl][i]
		xns := b.flower[bl][i+1]
		b.pa[xs] = b.g[xns][xs].u
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

func (b *refBlossomSolver) onFoundEdge(e refEdgeUV) bool {
	u, v := b.st[e.u], b.st[e.v]
	switch b.s[v] {
	case -1:
		b.pa[v] = e.u
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

const refInfWeight = int64(1) << 62

// matchRound grows alternating forests from all free vertices and returns
// true if an augmenting path was found and applied.
func (b *refBlossomSolver) matchRound() bool {
	for i := 1; i <= b.nx; i++ {
		b.s[i] = -1
		b.slack[i] = 0
	}
	b.queue = b.queue[:0]
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
		for len(b.queue) > 0 {
			u := b.queue[0]
			b.queue = b.queue[1:]
			if b.s[b.st[u]] == 1 {
				continue
			}
			for v := 1; v <= b.n; v++ {
				if b.g[u][v].w > 0 && b.st[u] != b.st[v] {
					if b.eDelta(b.g[u][v]) == 0 {
						if b.onFoundEdge(b.g[u][v]) {
							return true
						}
					} else {
						b.updateSlack(u, b.st[v])
					}
				}
			}
		}
		d := refInfWeight
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
					if v := b.eDelta(b.g[b.slack[x]][x]); v < d {
						d = v
					}
				case 0:
					if v := b.eDelta(b.g[b.slack[x]][x]) / 2; v < d {
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
		b.queue = b.queue[:0]
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 && b.st[b.slack[x]] != x && b.eDelta(b.g[b.slack[x]][x]) == 0 {
				if b.onFoundEdge(b.g[b.slack[x]][x]) {
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
func (b *refBlossomSolver) solve() []int {
	for u := 0; u <= 2*b.n; u++ {
		b.st[u] = u
		b.flower[u] = b.flower[u][:0]
		b.match[u] = 0
	}
	var wMax int64
	for u := 1; u <= b.n; u++ {
		for v := 1; v <= b.n; v++ {
			if u == v {
				b.flowerFrom[u][v] = u
			} else {
				b.flowerFrom[u][v] = 0
			}
			if b.g[u][v].w > wMax {
				wMax = b.g[u][v].w
			}
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

// refMaxWeight computes a maximum-weight matching over the integer weight
// matrix w (n×n, symmetric, zero diagonal, non-negative entries; zero means
// "no edge"). It returns mate with mate[u] = v or -1.
func refMaxWeight(w [][]int64) []int {
	n := len(w)
	if n == 0 {
		return nil
	}
	return newRefBlossomSolver(n, w).solve()
}
