package core

import (
	"math/rand"

	"uavdc/internal/geom"
	"uavdc/internal/tsp"
)

// RefinePlan post-optimises a plan by sliding every stop inside its
// coverage-feasible region — the intersection of the R0 disks around the
// sensors it collects from, a convex set — toward the flight segment
// between its tour neighbours, then re-ordering the stops with
// 2-opt/Or-opt. The paper restricts hovering positions to δ-grid centres
// to keep the search finite (§IV); once a plan is fixed, this continuous
// relocation is a pure improvement: collections and sojourns are
// untouched (coverage is enforced at every move, and with a
// distance-dependent radio model shrinking no link ever reduces a rate
// below what the sojourn already paid for), so only flight distance — and
// with it energy — can change, and the refiner keeps the original plan
// whenever it fails to shorten it.
//
// The returned plan is new; the input is not modified.
func RefinePlan(in *Instance, plan *Plan) *Plan {
	r0 := in.EffectiveCoverRadius()
	rng := rand.New(rand.NewSource(1)) // deterministic shuffle for Welzl

	out := &Plan{Algorithm: plan.Algorithm, Depot: plan.Depot}
	out.Stops = make([]Stop, len(plan.Stops))
	for i, stop := range plan.Stops {
		out.Stops[i] = stop
		out.Stops[i].Collected = append([]Collection(nil), stop.Collected...)
	}
	n := len(out.Stops)
	if n == 0 {
		return out
	}

	pos := func(i int) geom.Point { // i in [-1, n]: depot sentinel at both ends
		if i < 0 || i >= n {
			return out.Depot
		}
		return out.Stops[i].Pos
	}
	feasible := func(p geom.Point, collected []Collection) bool {
		if !in.Net.Region.Contains(p) {
			return false
		}
		for _, c := range collected {
			if in.Net.Sensors[c.Sensor].Pos.Dist(p) > r0.F() {
				return false
			}
		}
		return true
	}

	// Alternate relocation sweeps and re-ordering a few times; both steps
	// only ever shorten the tour.
	for pass := 0; pass < 3; pass++ {
		moved := false
		for i := 0; i < n; i++ {
			stop := &out.Stops[i]
			if len(stop.Collected) == 0 {
				continue
			}
			prev, next := pos(i-1), pos(i+1)
			cur := stop.Pos
			curDetour := prev.Dist(cur) + cur.Dist(next)

			// Anchor: the safest interior point of the feasible region.
			pts := make([]geom.Point, len(stop.Collected))
			for j, c := range stop.Collected {
				pts[j] = in.Net.Sensors[c.Sensor].Pos
			}
			anchor := geom.MinEnclosingCircle(pts, rng).C
			if !feasible(anchor, stop.Collected) {
				anchor = cur // MEC centre can leave the region; fall back
			}
			// Target: the unconstrained detour minimiser.
			target := geom.ClosestPointOnSegment(anchor, prev, next)
			// Slide from the anchor toward the target while feasible
			// (the feasible set is convex, so feasibility along the
			// segment is an interval starting at the anchor).
			best := anchor
			if feasible(target, stop.Collected) {
				best = target
			} else {
				lo, hi := 0.0, 1.0
				for iter := 0; iter < 30; iter++ {
					mid := (lo + hi) / 2
					if feasible(anchor.Lerp(target, mid), stop.Collected) {
						lo = mid
					} else {
						hi = mid
					}
				}
				best = anchor.Lerp(target, lo)
			}
			if d := prev.Dist(best) + best.Dist(next); d < curDetour-1e-9 {
				stop.Pos = best
				moved = true
			}
		}

		// Re-order: item 0 is the depot, items 1..n are stops.
		if n >= 3 {
			metric := func(i, j int) float64 {
				var a, b geom.Point
				if i == 0 {
					a = out.Depot
				} else {
					a = out.Stops[i-1].Pos
				}
				if j == 0 {
					b = out.Depot
				} else {
					b = out.Stops[j-1].Pos
				}
				return a.Dist(b)
			}
			order := make([]int, n+1)
			for i := range order {
				order[i] = i
			}
			tour := tsp.Tour{Order: order}
			if tsp.ImproveMetric(&tour, metric) > 1e-9 {
				moved = true
			}
			tour.RotateTo(0)
			reordered := make([]Stop, 0, n)
			for _, it := range tour.Order {
				if it != 0 {
					reordered = append(reordered, out.Stops[it-1])
				}
			}
			out.Stops = reordered
		}
		if !moved {
			break
		}
	}
	if out.FlightDistance() > plan.FlightDistance()-1e-9 {
		// No measurable gain: prefer the caller's plan verbatim.
		return plan
	}
	return out
}
