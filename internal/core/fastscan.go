package core

import (
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/units"
)

// This file is the fast-path candidate machinery shared by the greedy
// planners (Algorithm 2/3, LNS repair, residual replanning). It rests on
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

// newScanIndex builds the index for the current residuals. skip, when
// non-nil, drops locations the caller will never evaluate (the replanner's
// excluded no-hover zones); skipped locations are neither indexed nor
// reported active. Location 0 (the depot) is never a candidate. A
// reference index (Instance.Reference) keeps every non-skipped location
// active for good — the retained unpruned scan — so the skip ledger its
// callers derive from the active list stays at zero.
func newScanIndex(set *hover.Set, residual []units.Bits, skip func(c int) bool, reference bool) *scanIndex {
	ix := &scanIndex{
		locsOf: make([][]int32, len(residual)),
		cover:  make([]int32, set.Len()),
	}
	for c := 1; c < set.Len(); c++ {
		if skip != nil && skip(c) {
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

// insertionScratch precomputes the tour's stop positions and edge lengths
// so pricing one candidate is a single pass of fresh hypotenuses instead
// of three metric calls per edge. bestInsertion mirrors tsp.BestInsertion
// term by term — pts[i].Dist(v) is the identical math.Hypot call
// set.Dist(order[i], v) bottoms out in, and edge[i] caches the identical
// m(a, b) value — so position and delta are bit-equal to the reference.
type insertionScratch struct {
	pts  []geom.Point
	edge []float64
}

// reset rebuilds the scratch for the tour described by pos(i), i < n.
// Buffers are reused across iterations.
func (sc *insertionScratch) reset(n int, pos func(i int) geom.Point) {
	sc.pts = sc.pts[:0]
	sc.edge = sc.edge[:0]
	for i := 0; i < n; i++ {
		sc.pts = append(sc.pts, pos(i))
	}
	for i := 0; i < n; i++ {
		sc.edge = append(sc.edge, sc.pts[i].Dist(sc.pts[(i+1)%n]))
	}
}

// bestInsertion returns the cheapest cyclic insertion slot for a stop at
// p, exactly as tsp.BestInsertion prices it against the same tour.
func (sc *insertionScratch) bestInsertion(p geom.Point) (pos int, delta float64) {
	n := len(sc.pts)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return 1, 2 * sc.pts[0].Dist(p)
	}
	pos, delta = 0, math.Inf(1)
	for i := 0; i < n; i++ {
		d := sc.pts[i].Dist(p) + p.Dist(sc.pts[(i+1)%n]) - sc.edge[i]
		if d < delta {
			delta = d
			pos = i + 1
		}
	}
	return pos, delta
}

// bestPathInsertion is the open-path variant used by the replanner: the
// scratch holds start, interior stops, end, and insertion is priced
// between consecutive path nodes (pos 0 = right after start), mirroring
// pathState.bestInsertion including its clamp at 0.
func (sc *insertionScratch) bestPathInsertion(p geom.Point) (pos int, delta float64) {
	pos, delta = 0, math.Inf(1)
	for i := 0; i+1 < len(sc.pts); i++ {
		d := sc.pts[i].Dist(p) + p.Dist(sc.pts[i+1]) - sc.edge[i]
		if d < delta {
			pos, delta = i, d
		}
	}
	if delta < 0 {
		delta = 0
	}
	return pos, delta
}

// resetPath rebuilds the scratch for a path: node(i) for i ≤ n+1 with
// node(0) the start and node(n+1) the end; edge[i] is the i→i+1 length.
func (sc *insertionScratch) resetPath(n int, node func(i int) geom.Point) {
	sc.pts = sc.pts[:0]
	sc.edge = sc.edge[:0]
	for i := 0; i <= n+1; i++ {
		sc.pts = append(sc.pts, node(i))
	}
	for i := 0; i+1 < len(sc.pts); i++ {
		sc.edge = append(sc.edge, sc.pts[i].Dist(sc.pts[i+1]))
	}
}
