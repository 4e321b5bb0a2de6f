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
// Residuals only ever transition > 0 → == 0 exactly (acceptFull writes 0;
// acceptPartial subtracts amt ≤ residual and clamps at 0), so the cover
// counts are maintained by pure integer decrements — no float thresholds,
// no drift.

// scanIndex is the residual-active candidate index: an inverted
// sensor → covering-locations table plus a per-location count of covered
// sensors that still hold data. The active list is kept in ascending
// location-id order so fast scans visit candidates in exactly the
// reference scan's order (total-order tie-breaks and merged trace shards
// line up with the serial reference stream).
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
// instead of three metric calls per edge. cheapest prices each edge term
// by term as the reference does — pts[i].Dist(p) is the identical
// math.Hypot call set.Dist(order[i], v) bottoms out in, and edge[i] caches
// the identical m(a, b) value — so position and delta are bit-equal to
// tsp.BestInsertion on a closed tour and to openPath.insertion on a path.
type insertionScratch struct {
	pts    []geom.Point
	edge   []float64 // edge[i] = pts[i] → pts[i+1]
	closed bool
}

// reset rebuilds the scratch for the route through node(i), i < n. A
// closed tour (n ≥ 1) repeats its first node at the end, so its
// wrap-around edge is one more consecutive pair. Buffers are reused
// across iterations.
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

// cheapest returns the cheapest slot for a stop at p between consecutive
// route nodes and its length delta. On a closed tour the slot after node i
// is insertion position i+1, as tsp.BestInsertion numbers it (its 1-stop
// special case of 2·d comes out exactly here: Hypot is sign-symmetric,
// a+a == 2·a and the edge is 0). On a path it is position i in the order
// (0 = right after the start), and the delta is clamped at 0 like
// openPath.insertion's.
func (sc *insertionScratch) cheapest(p geom.Point) (pos int, delta float64) {
	pos, delta = 0, math.Inf(1)
	for i, e := range sc.edge {
		if d := sc.pts[i].Dist(p) + p.Dist(sc.pts[i+1]) - e; d < delta {
			pos, delta = i, d
		}
	}
	if sc.closed {
		return pos + 1, delta
	}
	if delta < 0 {
		delta = 0
	}
	return pos, delta
}
