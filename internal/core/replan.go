package core

import (
	"fmt"
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/obs"
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
	// network's sensor slice. Sensors at 0 are skipped.
	Residual []units.Bits
	// K is the sojourn partition granularity (Algorithm 3's virtual
	// levels); K ≤ 1 plans full drains only (Algorithm 2 behaviour).
	K int
	// Workers fans the per-iteration candidate scan across goroutines;
	// results are identical at any worker count (total-order merging),
	// matching the planners' determinism contract.
	Workers int
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
// executed in order starting from state.Pos. With K ≤ 1 every accepted
// stop drains its still-loaded covered sensors fully; with K > 1 the
// K-level sojourn ladder with in-place upgrades (Lemma 2) is used, exactly
// like Algorithm 3. Candidate scans record into the instance's obs
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
	set, err := in.buildCandidates(hover.Options{})
	if err != nil {
		endPlan()
		return nil, err
	}
	k := state.K
	if k < 1 {
		k = 1
	}
	st := newPathState(in, set, state)
	for {
		endIter := tr.Begin(SpanPlanReplanIterate)
		best, ok := st.pickNext(k, state.Workers)
		if !ok {
			endIter()
			break
		}
		st.accept(best)
		endIter(trace.Int("loc", best.loc))
	}
	p := st.plan()
	endPlan(trace.Int("stops", len(p.Stops)))
	return p, nil
}

// pathState is the open-path analogue of greedyState: the path runs from a
// fixed start (the UAV position) through the chosen hover locations to a
// fixed end (the depot), and candidate insertion prices the path-length
// delta instead of the closed-tour delta.
type pathState struct {
	in    *Instance
	set   *hover.Set
	start geom.Point
	end   geom.Point
	// order is the chosen hover-set ids in path order (endpoints
	// excluded).
	order    []int
	pathLen  float64
	inPath   []bool
	excluded []bool
	residual []units.Bits
	budget   units.Joules
	// per-location ledgers, keyed by hover-set id.
	sojourns  map[int]units.Seconds
	collected map[int]map[int]units.Bits
	hoverTime units.Seconds
	rec       obs.Recorder
	cAccepted obs.Counter
	cUpgraded obs.Counter
	cSkipped  obs.Counter
	// reference selects the retained full-scan path (Instance.Reference);
	// the fast path prunes idx to the residual-active locations (excluded
	// zones are pre-filtered either way) and prices insertions through
	// ins (cached path edges). nExcluded is the
	// number of excluded candidates, which the reference scan also never
	// evaluates — it closes the evals + skipped reconciliation.
	reference bool
	idx       *scanIndex
	ins       insertionScratch
	nExcluded int64
}

func newPathState(in *Instance, set *hover.Set, state ResidualState) *pathState {
	rec := in.obsRecorder()
	st := &pathState{
		in:        in,
		set:       set,
		start:     state.Pos,
		end:       in.Net.Depot,
		pathLen:   state.Pos.Dist(in.Net.Depot),
		inPath:    make([]bool, set.Len()),
		excluded:  make([]bool, set.Len()),
		residual:  append([]units.Bits(nil), state.Residual...),
		budget:    state.Budget,
		sojourns:  map[int]units.Seconds{},
		collected: map[int]map[int]units.Bits{},
		rec:       rec,
		cAccepted: rec.Counter(CounterAcceptedStops),
		cUpgraded: rec.Counter(CounterUpgradedStops),
		cSkipped:  rec.Counter(CounterScanSkippedDrained),
		reference: in.Reference,
	}
	st.inPath[hover.DepotID] = true
	if state.Exclude != nil {
		for c := 1; c < set.Len(); c++ {
			st.excluded[c] = state.Exclude(set.Locs[c].Pos)
			if st.excluded[c] {
				st.nExcluded++
			}
		}
	}
	return st
}

// scanIdx lazily builds the residual-active index over non-excluded
// locations (laziness mirrors greedyState.scanIdx; the residuals here are
// seeded in the constructor, but keeping one convention keeps the drain
// bookkeeping uniform).
func (st *pathState) scanIdx() *scanIndex {
	if st.idx == nil {
		st.idx = newScanIndex(st.set, st.residual, func(c int) bool { return st.excluded[c] }, st.reference)
	}
	return st.idx
}

// noteDrained tells the index sensor v just hit exactly zero residual.
func (st *pathState) noteDrained(v int) {
	if st.idx != nil {
		st.idx.drained(v)
	}
}

// node returns the position of path slot i in the virtual sequence
// start, order..., end (i ranges over 0..len(order)+1).
func (st *pathState) node(i int) geom.Point {
	switch {
	case i == 0:
		return st.start
	case i == len(st.order)+1:
		return st.end
	default:
		return st.set.Locs[st.order[i-1]].Pos
	}
}

// energy returns the nominal energy of the current path plus hovers.
func (st *pathState) energy() units.Joules {
	return st.in.Model.TourEnergy(units.Meters(st.pathLen), st.hoverTime)
}

// bestInsertion returns the cheapest insertion slot for location c: the
// path-length delta of placing it between consecutive path nodes. pos is
// the index into order where c would be inserted (0 = right after start).
func (st *pathState) bestInsertion(c int) (pos int, delta float64) {
	p := st.set.Locs[c].Pos
	pos, delta = 0, math.Inf(1)
	for i := 0; i <= len(st.order); i++ {
		a, b := st.node(i), st.node(i+1)
		d := a.Dist(p) + p.Dist(b) - a.Dist(b)
		if d < delta {
			pos, delta = i, d
		}
	}
	if delta < 0 {
		delta = 0
	}
	return pos, delta
}

// pathCandidate is one (location, level) insertion or upgrade priced
// against the current path.
type pathCandidate struct {
	loc     int
	pos     int
	upgrade bool
	sojourn units.Seconds
	gain    units.Bits
	travelD float64
	take    map[int]units.Bits
}

// betterPath is the strict total order merging parallel scans: higher
// ratio, then higher gain, then lower id, then lower sojourn — identical
// to the serial first-seen preference and to the planners' orders.
func betterPath(c1 pathCandidate, r1 float64, c2 pathCandidate, r2 float64) bool {
	if c2.loc < 0 {
		return true
	}
	if r1 != r2 { //uavdc:allow floateq exact compare keeps the tie-break order total and bit-reproducible; an epsilon would break transitivity
		return r1 > r2
	}
	if c1.gain != c2.gain { //uavdc:allow floateq exact compare keeps the tie-break order total and bit-reproducible; an epsilon would break transitivity
		return c1.gain > c2.gain
	}
	if c1.loc != c2.loc {
		return c1.loc < c2.loc
	}
	return c1.sojourn < c2.sojourn
}

// evalLoc prices every level of one location against the path, returning
// its best candidate under the total order. Excluded locations never
// reach it: the scan index drops them.
func (st *pathState) evalLoc(k, c int, cur units.Joules, so scanObs) (pathCandidate, float64, bool) {
	best := pathCandidate{loc: -1}
	so.evalHit(c)
	in := st.in
	bestRatio := -1.0
	loc := &st.set.Locs[c]
	so.resid.Inc()
	fullSojourn, fullAward := hover.ResidualDrain(loc.Covered, st.residual, loc.Rates, units.BitsPerSecond(in.Net.Bandwidth))
	prevSojourn := st.sojourns[c]
	already := st.collected[c]
	if fullAward <= 0 && !st.inPath[c] {
		return best, -1, false
	}
	var pos int
	var travelD float64
	if !st.inPath[c] {
		if st.reference {
			pos, travelD = st.bestInsertion(c)
		} else {
			pos, travelD = st.ins.bestPathInsertion(loc.Pos)
		}
	}
	for level := 1; level <= k; level++ {
		sojourn := units.Seconds(float64(level) * fullSojourn.F() / float64(k))
		if sojourn <= prevSojourn+1e-12 {
			continue
		}
		gain, take := partialTake(loc.Covered, st.residual, already, loc.Rates, units.BitsPerSecond(in.Net.Bandwidth), sojourn)
		if gain <= 1e-12 {
			continue
		}
		hoverE := in.Model.HoverEnergy(sojourn - prevSojourn)
		var travelE units.Joules
		if !st.inPath[c] {
			travelE = in.Model.TravelEnergy(units.Meters(travelD))
		}
		if cur+hoverE+travelE > st.budget+1e-9 {
			so.pruned.Inc()
			continue
		}
		denom := hoverE + travelE
		ratio := math.Inf(1)
		if denom > 1e-12 {
			ratio = gain.F() / denom.F()
		}
		cand := pathCandidate{
			loc:     c,
			pos:     pos,
			upgrade: st.inPath[c],
			sojourn: sojourn,
			gain:    gain,
			travelD: travelD,
			take:    take,
		}
		if betterPath(cand, ratio, best, bestRatio) {
			best, bestRatio = cand, ratio
		}
	}
	return best, bestRatio, best.loc >= 0
}

// pickNext scans every location, fanning across workers goroutines when
// asked; results are identical at any worker count. The fast scan walks
// only residual-active, non-excluded locations — both exclusions the
// reference scan provably discards too (see scanIndex) — and its skip
// count reconciles its evals with the reference scan's (every location
// except the excluded ones).
func (st *pathState) pickNext(k, workers int) (pathCandidate, bool) {
	cur := st.energy()
	ids := st.scanIdx().compact()
	st.ins.resetPath(len(st.order), st.node)
	st.cSkipped.Add(int64(st.set.Len()-1) - st.nExcluded - int64(len(ids)))
	return scanBest(st.rec, workers, ids, func(c int, so scanObs) (pathCandidate, float64, bool) {
		return st.evalLoc(k, c, cur, so)
	}, betterPath)
}

// accept applies a candidate: inserts or upgrades the stop, moves the
// taken volumes from residuals into the stop's ledger, and re-optimises
// the interior path order with a fixed-endpoint 2-opt.
func (st *pathState) accept(c pathCandidate) {
	if c.upgrade {
		st.cUpgraded.Inc()
	} else {
		st.cAccepted.Inc()
		st.order = append(st.order, 0)
		copy(st.order[c.pos+1:], st.order[c.pos:])
		st.order[c.pos] = c.loc
		st.inPath[c.loc] = true
		st.pathLen += c.travelD
		st.collected[c.loc] = map[int]units.Bits{}
	}
	st.hoverTime += c.sojourn - st.sojourns[c.loc]
	st.sojourns[c.loc] = c.sojourn
	ledger := st.collected[c.loc]
	for v, amt := range c.take {
		ledger[v] += amt
		st.residual[v] -= amt
		if st.residual[v] <= 0 {
			st.residual[v] = 0
			st.noteDrained(v)
		}
	}
	st.improve()
}

// improve runs a deterministic first-improvement 2-opt on the interior of
// the path. Reversing an interior segment keeps both endpoints fixed, so
// the move is valid for the open path under the symmetric metric; the
// path length never increases.
func (st *pathState) improve() {
	if len(st.order) < 2 {
		return
	}
	const maxRounds = 16
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Reversing order[i..j] replaces edges (i-1,i) and (j,j+1) with
		// (i-1,j) and (i,j+1) in the virtual sequence start..end.
		for i := 1; i <= len(st.order); i++ {
			for j := i + 1; j <= len(st.order); j++ {
				a, b := st.node(i-1), st.node(i)
				c, d := st.node(j), st.node(j+1)
				delta := a.Dist(c) + b.Dist(d) - a.Dist(b) - c.Dist(d)
				if delta < -1e-9 {
					for lo, hi := i-1, j-1; lo < hi; lo, hi = lo+1, hi-1 {
						st.order[lo], st.order[hi] = st.order[hi], st.order[lo]
					}
					st.pathLen += delta
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// plan freezes the path into a Plan: Depot is the instance depot, stops in
// path order, to be executed starting from the residual state's position.
func (st *pathState) plan() *Plan {
	p := &Plan{Algorithm: "replan", Depot: st.in.Net.Depot}
	for _, id := range st.order {
		stop := Stop{
			Pos:     st.set.Locs[id].Pos,
			LocID:   id,
			Sojourn: st.sojourns[id].F(),
		}
		for v, amt := range st.collected[id] {
			stop.Collected = append(stop.Collected, Collection{Sensor: v, Amount: amt.F()})
		}
		sortCollections(stop.Collected)
		p.Stops = append(p.Stops, stop)
	}
	return p
}
