package core

import (
	"fmt"
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// ResidualState is a mission snapshot the adaptive executor hands to the
// replanner: where the UAV is, how much energy it may still spend, and how
// much data every sensor still holds. It is the exported entry point for
// mid-flight replanning (the ISSUE-2 "replan over a residual state").
type ResidualState struct {
	// Pos is the UAV's current ground-projected position; the replanned
	// path starts here and ends at the instance's depot.
	Pos geom.Point
	// Budget is the energy available for the remaining mission in J:
	// flight along the replanned path plus hovers. The caller is
	// responsible for already having reserved any fixed overhead
	// (descent, safety margin) before passing the budget.
	Budget units.Joules
	// Residual is the remaining volume per sensor in MB, indexed like the
	// network's sensor slice. Sensors at 0, or at a rounding residue of at
	// most 1e-12 of their data, are drained and skipped.
	Residual []units.Bits
	// K is the sojourn partition granularity (Algorithm 3's virtual
	// levels). K ≤ 1 plans one level per stop, the residual drain time,
	// which takes every covered residual whole: Algorithm 2's rule.
	K int
	// Exclude, when non-nil, drops candidate hovering locations at
	// positions the executor knows to be unusable (e.g. declared no-hover
	// fault zones). The depot and the current position are never subject
	// to it.
	Exclude func(geom.Point) bool
}

// ReplanResidual re-runs the Algorithm 2/3 ratio greedy over the undrained
// candidates with the residual budget, planning an *open path*
// state.Pos → stops → depot instead of the planners' closed depot tour.
// Because the path ends at the depot and its nominal energy never exceeds
// state.Budget, a caller that budgets conservatively keeps the depot
// reachable by construction.
//
// The returned plan's Depot is the instance depot; its stops are to be
// executed in order starting from state.Pos. It runs Algorithm 3's own
// scan, level evaluator and accept step on the open-path route shape:
// with K ≤ 1 every accepted stop hovers for its residual drain time and
// drains its still-loaded covered sensors, as Algorithm 2 does; with
// K > 1 the K-level sojourn ladder with in-place upgrades (Lemma 2) is
// used. Candidate scans record into the instance's obs
// recorder under the same counters as the planners.
func ReplanResidual(in *Instance, state ResidualState) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(state.Residual) != len(in.Net.Sensors) {
		return nil, fmt.Errorf("core: residual has %d entries for %d sensors", len(state.Residual), len(in.Net.Sensors))
	}
	for v, r := range state.Residual {
		if r < 0 || math.IsNaN(r.F()) || math.IsInf(r.F(), 0) {
			return nil, fmt.Errorf("core: invalid residual %v for sensor %d", r, v)
		}
	}
	if math.IsNaN(state.Budget.F()) || math.IsInf(state.Budget.F(), 0) {
		return nil, fmt.Errorf("core: invalid budget %v", state.Budget)
	}
	tr := in.tracer()
	endPlan := tr.Begin(SpanPlanReplan, trace.Num("budget_j", state.Budget.F()))
	set, err := in.buildCandidates()
	if err != nil {
		endPlan()
		return nil, err
	}
	st := newPathState(in, set, state)
	st.run(state.K, func() func(...trace.Attr) { return tr.Begin(SpanPlanReplanIterate) })
	p := st.plan("replan")
	endPlan(trace.Int("stops", len(p.Stops)))
	return p, nil
}

// newPathState is the replanner's greedy state: an empty open path from
// state.Pos to the depot, state's budget and residuals, each at most
// residueRoundoff of its sensor's data seeded as 0, and its excluded
// candidates.
func newPathState(in *Instance, set *hover.Set, state ResidualState) *greedyState {
	st := newGreedyState(in, set)
	st.budget = state.Budget
	for v, r := range state.Residual {
		if r <= residueRoundoff*units.Bits(in.Net.Sensors[v].Data) {
			r = 0 // drained, up to the rounding of the executor's subtractions
		}
		st.residual[v] = r
	}
	st.path = &openPath{start: state.Pos, end: in.Net.Depot, length: state.Pos.Dist(in.Net.Depot)}
	if state.Exclude != nil {
		st.excluded = make([]bool, set.Len())
		for c := 1; c < set.Len(); c++ {
			st.excluded[c] = state.Exclude(set.Locs[c].Pos)
			if st.excluded[c] {
				st.nExcluded++
			}
		}
	}
	return st
}

// openPath is the replanner's route shape: from a fixed start (the UAV
// position) through the chosen hover-set ids in order to a fixed end (the
// depot). length is kept incrementally — grown by every priced insertion
// and every 2-opt move — rather than recomputed from order.
type openPath struct {
	start, end geom.Point
	order      []int
	length     float64
}

// node returns the position of path slot i in the virtual sequence
// start, order..., end (i ranges over 0..len(order)+1).
func (p *openPath) node(set *hover.Set, i int) geom.Point {
	switch {
	case i == 0:
		return p.start
	case i == len(p.order)+1:
		return p.end
	default:
		return set.Locs[p.order[i-1]].Pos
	}
}

// insertion is the reference pricing of location c: the path-length delta
// of placing it between consecutive path nodes, clamped at 0. pos is the
// index into order where c would be inserted (0 = right after start).
func (p *openPath) insertion(set *hover.Set, c int) (pos int, delta float64) {
	q := set.Locs[c].Pos
	pos, delta = 0, math.Inf(1)
	for i := 0; i <= len(p.order); i++ {
		a, b := p.node(set, i), p.node(set, i+1)
		d := a.Dist(q) + q.Dist(b) - a.Dist(b)
		if d < delta {
			pos, delta = i, d
		}
	}
	if delta < 0 {
		delta = 0
	}
	return pos, delta
}

// improve runs a deterministic first-improvement 2-opt on the interior of
// the path. Reversing an interior segment keeps both endpoints fixed, so
// the move is valid for the open path under the symmetric metric; the
// path length never increases.
func (p *openPath) improve(set *hover.Set) {
	if len(p.order) < 2 {
		return
	}
	const maxRounds = 16
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Reversing order[i..j] replaces edges (i-1,i) and (j,j+1) with
		// (i-1,j) and (i,j+1) in the virtual sequence start..end.
		for i := 1; i <= len(p.order); i++ {
			for j := i + 1; j <= len(p.order); j++ {
				a, b := p.node(set, i-1), p.node(set, i)
				c, d := p.node(set, j), p.node(set, j+1)
				delta := a.Dist(c) + b.Dist(d) - a.Dist(b) - c.Dist(d)
				if delta < -1e-9 {
					for lo, hi := i-1, j-1; lo < hi; lo, hi = lo+1, hi-1 {
						p.order[lo], p.order[hi] = p.order[hi], p.order[lo]
					}
					p.length += delta
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}
