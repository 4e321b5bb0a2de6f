package core

import (
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/units"
)

// This file is the fast-path candidate machinery of greedyState, the one
// greedy state behind Algorithms 2 and 3, LNS repair and residual
// replanning, whichever route shape it grows. It rests on
// one exactness argument: a candidate location whose covered sensors are
// all fully drained has hover.ResidualDrain award exactly 0, and the
// reference scan discards such candidates unconditionally (they can never
// produce a positive-gain level either, because partialTake is bounded by
// the residuals). Skipping them without evaluation is therefore
// output-equivalent bit for bit — same plans, same accepted/pruned
// counters, same detail-event set for the candidates that are evaluated.
// The index below tracks exactly that set: locations still covering at
// least one sensor with residual > 0.
//
// Residuals only ever transition > 0 → == 0 exactly (acceptPartial
// subtracts amt ≤ residual and clamps at 0; a stop that reaches a
// sensor's drain time takes the residual itself, so a full drain leaves
// no residue behind), so the cover counts are maintained by pure integer
// decrements — no float thresholds, no drift.
//
// Three caches then re-score only what the last acceptance changed, each
// replaying the reference's own float expressions on unchanged inputs:
//
//   - ladderCache keeps the level ladder per location: the sojourn, gain
//     and hover energy of every level that survives the upgrade and
//     zero-gain filters. A ladder is a pure function of the
//     residuals of the location's covered sensors and of its own sojourn
//     and ledger, so an acceptance invalidates exactly the accepted
//     location and the locations covering a sensor it took data from
//     (scanIndex.locsOf); every other ladder is reused.
//   - insertionScratch's memo keeps each location's cheapest edge, raw
//     delta and whether another edge ties it. A plain insertion replaces
//     one edge by two and leaves every other edge's value bit-identical,
//     so the new cheapest is the lower of the memo (index shifted past the
//     split) and the two new edges, ties to the lower index as the scan's
//     strict < resolves them; a memo on the split edge itself is
//     rescanned. split skips both new edges for a location too far from
//     the inserted point for either to reach its memo (the bound is at
//     farFrom). A re-tour of a closed tour keeps most edges: retour moves
//     each memo to its edge's index in the new order and prices only the
//     edges the new order added; a memo whose edge is gone, or that ties
//     another edge (whose new index may now be the lower), is rescanned.
//     A reordered path, or a tour under four stops, voids every memo.
//   - offer keeps, next to each ladder, the location's last scoring: the
//     winning rung (or none feasible), the insertion delta and the route
//     energy cur it was scored at. While the ladder is fresh and the
//     delta unchanged, a higher cur can only shrink the set of rungs that
//     pass the budget test, which is monotone in cur, and betterPartial
//     never reads cur, so the winner stands as long as it still passes
//     the budget test; evalLoc then only re-runs that test over the rungs
//     (to count pruned_over_budget as the reference does) and the
//     winner's ratio. core.scan_reused_offers counts these reuses.

// scanIndex is the residual-active candidate index: an inverted
// sensor → covering-locations table plus a per-location count of covered
// sensors that still hold data. The active list is kept in ascending
// location-id order so fast scans visit candidates in exactly the
// reference scan's order (total-order tie-breaks and the detail trace
// stream line up with the reference's). The inverted table is one flat
// slice, sized once: sensor v's covering locations are locs[at[v]:at[v+1]].
type scanIndex struct {
	at     []int32
	locs   []int32
	cover  []int32 // location id → covered sensors with residual > 0
	active []int32 // ascending location ids with cover > 0 (may hold stale entries until compacted)
	stale  bool
}

// newScanIndex builds the index for the current residuals. excluded, when
// non-nil, marks the greedy state's no-hover locations, which no scan ever
// evaluates; they are neither indexed nor reported active. Location 0 (the
// depot) is never a candidate. A reference index (Instance.Reference)
// keeps every non-excluded location active for good — the retained
// unpruned scan — so the skip ledger its callers derive from the active
// list stays at zero.
func newScanIndex(set *hover.Set, residual []units.Bits, excluded []bool, reference bool) *scanIndex {
	ix := &scanIndex{
		at:     make([]int32, len(residual)+1),
		cover:  make([]int32, set.Len()),
		active: make([]int32, 0, max(set.Len()-1, 0)),
	}
	indexed := func(c int) bool { return excluded == nil || !excluded[c] }
	if !reference {
		// Count each sensor's locations into at[v], turn the counts into
		// range ends, then fill every range from its end, locations in
		// descending order, so at[v] ends at the range's start.
		for c := 1; c < set.Len(); c++ {
			if indexed(c) {
				for _, v := range set.Locs[c].Covered {
					ix.at[v]++
					if residual[v] > 0 {
						ix.cover[c]++
					}
				}
			}
		}
		for v := 1; v < len(ix.at); v++ {
			ix.at[v] += ix.at[v-1]
		}
		ix.locs = make([]int32, ix.at[len(residual)])
		for c := set.Len() - 1; c >= 1; c-- {
			if indexed(c) {
				for _, v := range set.Locs[c].Covered {
					ix.at[v]--
					ix.locs[ix.at[v]] = int32(c)
				}
			}
		}
	}
	for c := 1; c < set.Len(); c++ {
		if indexed(c) && (reference || ix.cover[c] > 0) {
			ix.active = append(ix.active, int32(c))
		}
	}
	return ix
}

// locsOf returns the ascending ids of the locations covering sensor v.
func (ix *scanIndex) locsOf(v int) []int32 { return ix.locs[ix.at[v]:ix.at[v+1]] }

// drained records that sensor v's residual just reached exactly zero,
// decrementing the cover count of every location that was counting on it.
func (ix *scanIndex) drained(v int) {
	for _, c := range ix.locsOf(v) {
		ix.cover[c]--
		if ix.cover[c] == 0 {
			ix.stale = true
		}
	}
}

// compact drops fully-drained entries from the active list and returns it,
// still in ascending location-id order.
func (ix *scanIndex) compact() []int32 {
	if !ix.stale {
		return ix.active
	}
	kept := ix.active[:0]
	for _, c := range ix.active {
		if ix.cover[c] > 0 {
			kept = append(kept, c)
		}
	}
	ix.active = kept
	ix.stale = false
	return ix.active
}

// insertionScratch precomputes the route's node positions and edge
// lengths so pricing one candidate is a single pass of fresh hypotenuses
// instead of three metric calls per edge. scan prices each edge term by
// term as the reference does — pts[i].Dist(p) is the identical math.Hypot
// call set.Dist(order[i], v) bottoms out in, and edge[i] caches the
// identical m(a, b) value — so position and delta are bit-equal to
// tsp.BestInsertion on a closed tour and to openPath.insertion on a path.
// memo, indexed by location id, carries each location's scan result across
// iterations while its gen matches the scratch's. The last four fields
// are retour's buffers.
type insertionScratch struct {
	pts    []geom.Point
	edge   []float64 // edge[i] = pts[i] → pts[i+1]
	closed bool
	memo   []insMemo
	gen    uint32  // memo generation; starts at 1 so zeroed memos are stale
	at     []int32 // location id → index in the new order
	remap  []int32 // old edge index → new edge index, -1 when gone
	kept   []bool  // new edge index → the edge was in the old order
	added  []int32 // new edge indices not kept, ascending
}

// insMemo is one location's cheapest edge and its raw (unclamped) delta;
// tie records that another edge's delta equals it.
type insMemo struct {
	d    float64
	gen  uint32
	edge int32
	tie  bool
}

// reset rebuilds the scratch for the route through node(i), i < n. A
// closed tour (n ≥ 1) repeats its first node at the end, so its
// wrap-around edge is one more consecutive pair. Buffers are reused
// across iterations; the memo is left alone.
func (sc *insertionScratch) reset(n int, node func(i int) geom.Point, closed bool) {
	sc.pts = sc.pts[:0]
	sc.edge = sc.edge[:0]
	sc.closed = closed
	for i := 0; i < n; i++ {
		sc.pts = append(sc.pts, node(i))
	}
	if closed {
		sc.pts = append(sc.pts, sc.pts[0])
	}
	for i := 0; i+1 < len(sc.pts); i++ {
		sc.edge = append(sc.edge, sc.pts[i].Dist(sc.pts[i+1]))
	}
}

// delta is the raw length delta of a stop at p in edge i. An edge's delta
// does not depend on its direction: Hypot is sign-symmetric and float
// addition commutes.
func (sc *insertionScratch) delta(i int, p geom.Point) float64 {
	return sc.pts[i].Dist(p) + p.Dist(sc.pts[i+1]) - sc.edge[i]
}

// scan returns the lowest-indexed edge of least delta for a stop at p, and
// whether another edge ties it. Each node's hypotenuse serves both edges
// it ends: p.Dist(q) is bit-equal to q.Dist(p), since Hypot is
// sign-symmetric and a−b == −(b−a), so every term, and the sum in delta's
// order, is delta's.
func (sc *insertionScratch) scan(p geom.Point) (edge int, d float64, tie bool) {
	edge, d = 0, math.Inf(1)
	if len(sc.edge) == 0 {
		return edge, d, false
	}
	h0 := sc.pts[0].Dist(p)
	for i, e := range sc.edge {
		h1 := p.Dist(sc.pts[i+1])
		if di := h0 + h1 - e; di < d {
			edge, d, tie = i, di, false
		} else if di == d { //uavdc:allow floateq an exact tie is what makes the lowest index, not the edge, the scan's answer
			tie = true
		}
		h0 = h1
	}
	return edge, d, tie
}

// fold folds edge i, of delta di for the memo's location, into the memo's
// cheapest edge e of delta d: the lower delta wins, the lower index on an
// exact tie, as the scan's strict < resolves them.
func fold(e int, d float64, tie bool, i int, di float64) (int, float64, bool) {
	switch {
	case di < d:
		return i, di, false
	case di == d: //uavdc:allow floateq the scan's strict < keeps the lowest index among equal deltas; this replays it exactly
		return min(e, i), d, true
	}
	return e, d, tie
}

// slot turns an edge and its raw delta into the route's insertion position
// and length delta. On a closed tour the slot after node i is insertion
// position i+1, as tsp.BestInsertion numbers it (its 1-stop special case
// of 2·d comes out exactly here: Hypot is sign-symmetric, a+a == 2·a and
// the edge is 0). On a path it is position i in the order (0 = right
// after the start), and the delta is clamped at 0 like
// openPath.insertion's.
func (sc *insertionScratch) slot(edge int, d float64) (pos int, delta float64) {
	if sc.closed {
		return edge + 1, d
	}
	if d < 0 {
		d = 0
	}
	return edge, d
}

// edgeAt is slot's inverse on positions: the edge an insertion at pos
// splits.
func (sc *insertionScratch) edgeAt(pos int) int {
	if sc.closed {
		return pos - 1
	}
	return pos
}

// memoized is cheapest for location c at p through c's memo, scanning only
// when the memo is stale.
func (sc *insertionScratch) memoized(c int, p geom.Point) (pos int, delta float64) {
	m := &sc.memo[c]
	if m.gen != sc.gen {
		e, d, tie := sc.scan(p)
		*m = insMemo{d: d, gen: sc.gen, edge: int32(e), tie: tie}
	}
	return sc.slot(int(m.edge), m.d)
}

// sameBits reports that a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// farSlack is farFrom's relative margin for rounding.
const farSlack = 1e-9

// farFrom reports that neither edge a→q nor q→b, of lengths la and lb, can
// price a stop at p at or below d: by the triangle inequality each of
// their deltas is at least 2(|pq| − max(la, lb)), which exceeds d once
// |pq| > max(la, lb) + d/2 (or max(la, lb) when d < 0, the rounding
// residue of a zero delta). Every length here and every term of a delta
// is within a few ulps — under 1e-14 relative — of its exact value, so
// widening the threshold by farSlack relative makes the test sound at any
// coordinate scale whose squares neither overflow nor underflow; squared
// distances avoid a Hypot per location.
func farFrom(p, q geom.Point, la, lb, d float64) bool {
	t := (max(la, lb) + max(d, 0)/2) * (1 + farSlack)
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx+dy*dy > t*t
}

// split updates the memos of the locations in ids, other than those in
// the route, after an insertion split edge j of the previous route in two;
// the scratch must already hold the new route, whose edges j and j+1 are
// the new ones, through the inserted point pts[j+1]. A memo on edge j
// itself keeps a new edge priced strictly below its old least delta:
// every surviving edge priced at least that, so the new edge is the unique
// cheapest (the lower of the two on a tie between them). Otherwise it is
// marked stale. A location farFrom the inserted point only shifts its
// memo's index.
func (sc *insertionScratch) split(j int, ids []int32, locs []hover.Location, inRoute []bool) {
	q := sc.pts[j+1]
	la, lb := sc.edge[j], sc.edge[j+1]
	for _, c := range ids {
		m := &sc.memo[c]
		if m.gen != sc.gen || inRoute[c] {
			continue
		}
		p := locs[c].Pos
		e := int(m.edge)
		far := farFrom(p, q, la, lb, m.d)
		switch {
		case e == j && far:
			m.gen = 0
			continue
		case e == j:
			d0, d1 := sc.delta(j, p), sc.delta(j+1, p)
			switch {
			case d0 < m.d && d0 <= d1:
				m.edge, m.d, m.tie = int32(j), d0, d0 == d1 //uavdc:allow floateq an exact tie between the new edges keeps the lower, as the scan does
			case d1 < m.d && d1 < d0:
				m.edge, m.d, m.tie = int32(j+1), d1, false
			default:
				m.gen = 0
			}
			continue
		case e > j:
			e++
		}
		d, tie := m.d, m.tie
		if !far {
			e, d, tie = fold(e, d, tie, j, sc.delta(j, p))
			e, d, tie = fold(e, d, tie, j+1, sc.delta(j+1, p))
		}
		m.edge, m.d, m.tie = int32(e), d, tie
	}
}

// retour carries the memos of the locations in ids, other than those in
// the route, across a re-tour of a closed tour of four or more stops from
// order before to order after; the scratch must already hold after. An
// undirected edge keeps its delta bit for bit (see delta), so a memo
// whose edge survives moves to that edge's new index and folds in only
// the edges after added; every edge that survived priced at least the
// memo's delta. A memo whose edge is gone is marked stale, and so is one
// that ties another edge: the tied edge's new index may be the lower.
func (sc *insertionScratch) retour(before, after []int, ids []int32, locs []hover.Location, inRoute []bool) {
	n := len(after)
	if len(sc.at) < len(locs) {
		sc.at = make([]int32, len(locs))
	}
	for i, v := range after {
		sc.at[v] = int32(i)
	}
	sc.remap = sc.remap[:0]
	sc.kept = append(sc.kept[:0], make([]bool, n)...)
	for e, u := range before {
		i, k := int(sc.at[u]), int(sc.at[before[(e+1)%n]])
		switch {
		case k == (i+1)%n:
		case i == (k+1)%n:
			i = k
		default:
			i = -1
		}
		sc.remap = append(sc.remap, int32(i))
		if i >= 0 {
			sc.kept[i] = true
		}
	}
	sc.added = sc.added[:0]
	for i, k := range sc.kept {
		if !k {
			sc.added = append(sc.added, int32(i))
		}
	}
	for _, c := range ids {
		m := &sc.memo[c]
		if m.gen != sc.gen || inRoute[c] {
			continue
		}
		e := int(sc.remap[m.edge])
		if e < 0 || m.tie {
			m.gen = 0
			continue
		}
		p := locs[c].Pos
		d, tie := m.d, false
		for _, i := range sc.added {
			e, d, tie = fold(e, d, tie, int(i), sc.delta(int(i), p))
		}
		m.edge, m.d, m.tie = int32(e), d, tie
	}
}

// ladderCacheMaxRungs bounds the ladder cache (locations × K rungs): a
// larger K re-derives every ladder at each evaluation, as the reference
// path does, instead of holding them all.
const ladderCacheMaxRungs = 1 << 20

// rung is one level of a location's sojourn ladder that survives the
// upgrade and zero-gain filters: the stop's new total sojourn, the data
// it gains, and the hover energy of the extra sojourn.
type rung struct {
	sojourn units.Seconds
	gain    units.Bits
	hoverE  units.Joules
}

// ladderCache holds every location's rungs between acceptances, and its
// last offer. Location c's rungs are rungs[c·k : c·k+n[c]], valid while
// fresh[c].
type ladderCache struct {
	fresh  []bool
	n      []int32
	rungs  []rung
	offers []offer
}

// offer is a location's last scoring against its fresh ladder: win is
// one past the index of the winning rung, 0 when no rung passed the
// budget test, at insertion delta travelD (0 for an upgrade) and route
// energy cur. A zero offer is unscored.
type offer struct {
	travelD float64
	cur     units.Joules
	win     int32
	scored  bool
}

func newLadderCache(locs, k int) *ladderCache {
	return &ladderCache{
		fresh:  make([]bool, locs),
		n:      make([]int32, locs),
		rungs:  make([]rung, locs*k),
		offers: make([]offer, locs),
	}
}
