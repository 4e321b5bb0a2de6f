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
// subtracts amt ≤ residual and clamps at 0; in drain mode amt is the
// residual itself), so the cover
// counts are maintained by pure integer decrements — no float thresholds,
// no drift.
//
// Two caches then re-price only what the last acceptance changed, each
// replaying the reference's own float expressions on unchanged inputs:
//
//   - ladderCache keeps the level ladder per location: the sojourn, gain
//     and hover energy of every level that survives the upgrade and
//     zero-gain filters (in Algorithm 2's drain mode, the one full-drain
//     rung). A ladder is a pure function of the
//     residuals of the location's covered sensors and of its own sojourn
//     and ledger, so an acceptance invalidates exactly the accepted
//     location and the locations covering a sensor it took data from
//     (scanIndex.locsOf); every other ladder is reused, and only the budget
//     check and the ratio — which read the route's current energy — are
//     redone, with the same expressions.
//   - insertionScratch's memo keeps each location's cheapest edge and raw
//     delta. A plain insertion replaces one edge by two and leaves every
//     other edge's value bit-identical, so the new cheapest is the lower of
//     the memo (index shifted past the split) and the two new edges, ties
//     to the lower index as the scan's strict < resolves them; a memo on
//     the split edge itself is rescanned. Any re-optimisation that moves
//     the order invalidates every memo.

// scanIndex is the residual-active candidate index: an inverted
// sensor → covering-locations table plus a per-location count of covered
// sensors that still hold data. The active list is kept in ascending
// location-id order so fast scans visit candidates in exactly the
// reference scan's order (total-order tie-breaks and the detail trace
// stream line up with the reference's).
type scanIndex struct {
	locsOf [][]int32 // sensor id → candidate locations covering it
	cover  []int32   // location id → covered sensors with residual > 0
	active []int32   // ascending location ids with cover > 0 (may hold stale entries until compacted)
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
		locsOf: make([][]int32, len(residual)),
		cover:  make([]int32, set.Len()),
	}
	for c := 1; c < set.Len(); c++ {
		if excluded != nil && excluded[c] {
			continue
		}
		if !reference {
			for _, v := range set.Locs[c].Covered {
				ix.locsOf[v] = append(ix.locsOf[v], int32(c))
				if residual[v] > 0 {
					ix.cover[c]++
				}
			}
		}
		if reference || ix.cover[c] > 0 {
			ix.active = append(ix.active, int32(c))
		}
	}
	return ix
}

// drained records that sensor v's residual just reached exactly zero,
// decrementing the cover count of every location that was counting on it.
func (ix *scanIndex) drained(v int) {
	for _, c := range ix.locsOf[v] {
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
// iterations while its gen matches the scratch's.
type insertionScratch struct {
	pts    []geom.Point
	edge   []float64 // edge[i] = pts[i] → pts[i+1]
	closed bool
	memo   []insMemo
	gen    uint32 // memo generation; starts at 1 so zeroed memos are stale
}

// insMemo is one location's cheapest edge and its raw (unclamped) delta.
type insMemo struct {
	gen  uint32
	edge int32
	d    float64
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

// delta is the raw length delta of a stop at p in edge i.
func (sc *insertionScratch) delta(i int, p geom.Point) float64 {
	return sc.pts[i].Dist(p) + p.Dist(sc.pts[i+1]) - sc.edge[i]
}

// scan returns the lowest-indexed edge of least delta for a stop at p.
// Each node's hypotenuse serves both edges it ends: p.Dist(q) is bit-equal
// to q.Dist(p), since Hypot is sign-symmetric and a−b == −(b−a), so every
// term, and the sum in delta's order, is delta's.
func (sc *insertionScratch) scan(p geom.Point) (edge int, d float64) {
	edge, d = 0, math.Inf(1)
	if len(sc.edge) == 0 {
		return edge, d
	}
	h0 := sc.pts[0].Dist(p)
	for i, e := range sc.edge {
		h1 := p.Dist(sc.pts[i+1])
		if di := h0 + h1 - e; di < d {
			edge, d = i, di
		}
		h0 = h1
	}
	return edge, d
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
		e, d := sc.scan(p)
		*m = insMemo{gen: sc.gen, edge: int32(e), d: d}
	}
	return sc.slot(int(m.edge), m.d)
}

// split updates the memos of the locations in ids, other than those in
// the route, after an insertion split edge j of the previous route in two;
// the scratch must already hold the new route, whose edges j and j+1 are
// the new ones. A memo on edge j itself keeps a new edge priced strictly
// below its old least delta: every surviving edge priced at least that, so
// the new edge is the unique cheapest (the lower of the two on a tie
// between them). Otherwise it is marked stale.
func (sc *insertionScratch) split(j int, ids []int32, locs []hover.Location, inRoute []bool) {
	for _, c := range ids {
		m := &sc.memo[c]
		if m.gen != sc.gen || inRoute[c] {
			continue
		}
		p := locs[c].Pos
		e := int(m.edge)
		switch {
		case e == j:
			d0, d1 := sc.delta(j, p), sc.delta(j+1, p)
			switch {
			case d0 < m.d && d0 <= d1:
				m.edge, m.d = int32(j), d0
			case d1 < m.d && d1 < d0:
				m.edge, m.d = int32(j+1), d1
			default:
				m.gen = 0
			}
			continue
		case e > j:
			e++
		}
		d := m.d
		for i := j; i <= j+1; i++ {
			if di := sc.delta(i, p); di < d || di == d && i < e { //uavdc:allow floateq the scan's strict < keeps the lowest index among equal deltas; this replays it exactly
				e, d = i, di
			}
		}
		m.edge, m.d = int32(e), d
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

// ladderCache holds every location's rungs between acceptances. Location
// c's rungs are rungs[c·k : c·k+n[c]], valid while fresh[c].
type ladderCache struct {
	fresh []bool
	n     []int32
	rungs []rung
}

func newLadderCache(locs, k int) *ladderCache {
	return &ladderCache{fresh: make([]bool, locs), n: make([]int32, locs), rungs: make([]rung, locs*k)}
}
