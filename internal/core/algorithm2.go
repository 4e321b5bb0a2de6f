package core

import (
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// Algorithm2 is the ratio-greedy heuristic for the data-collection
// maximisation problem with hovering coverage overlapping (Section V). The
// tour starts at the depot and grows one hovering location per iteration:
// the candidate maximising ρ = P′/(t′·η_h + ΔTSP·η_t) (Eq. 13), where P′
// and t′ count only sensors not already drained at earlier stops (Eq. 11,
// 12), subject to the energy capacity.
//
// Implementation note (DESIGN.md §4.4): the paper prices ΔTSP by re-running
// Christofides for every candidate in every iteration. This planner prices
// candidates with the cheapest-insertion delta (an upper bound on the true
// increase) and re-optimises the selected tour with 2-opt/Or-opt after
// every acceptance; the energy constraint is always enforced against the
// actual current tour, so feasibility is never at risk. Set ExactRatioTSP
// to restore the literal per-candidate Christofides pricing (small
// instances only — it is O(M·|S|³) per iteration).
type Algorithm2 struct {
	// ExactRatioTSP prices every candidate with a full Christofides
	// recomputation, as the paper's Eq. 13 literally specifies.
	ExactRatioTSP bool
	// Workers sets the number of goroutines scanning candidates per
	// iteration; 0 or 1 means serial. Results are identical at any
	// worker count: candidates are compared with a total order
	// (ratio, then award, then lowest id).
	Workers int
}

// Name implements Planner.
func (a *Algorithm2) Name() string { return "algorithm2" }

// Plan implements Planner.
func (a *Algorithm2) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tr := in.tracer()
	endPlan := tr.Begin(SpanPlanAlg2)
	endCand := tr.Begin(SpanPlanAlg2Candidates)
	set, err := in.buildCandidates(hover.Options{})
	if err != nil {
		endCand()
		endPlan()
		return nil, err
	}
	endCand(trace.Int("candidates", set.Len()))
	st := newGreedyState(in, set)
	st.reference = st.reference || a.ExactRatioTSP
	for {
		endIter := tr.Begin(SpanPlanAlg2Iterate)
		best, ok := a.pickNext(st)
		if !ok {
			endIter()
			break
		}
		st.acceptFull(best)
		endIter(trace.Int("loc", best.loc))
	}
	p := st.plan(a.Name())
	endPlan(trace.Int("stops", len(p.Stops)))
	return p, nil
}

type fullCandidate struct {
	loc     int           // hover-set id
	pos     int           // insertion position in the tour
	sojourn units.Seconds // t′
	award   units.Bits    // P′
	travelD float64       // tour-length increase in metres
}

// evalFull prices candidate c against the current state, returning ok =
// false when it is covered, drained, or over budget. so carries the
// evaluating worker's counter handles.
func (a *Algorithm2) evalFull(st *greedyState, c int, curEnergy units.Joules, so scanObs) (fullCandidate, float64, bool) {
	so.evalHit(c)
	loc := &st.set.Locs[c]
	so.resid.Inc()
	sojourn, award := hover.ResidualDrain(loc.Covered, st.residual, loc.Rates, units.BitsPerSecond(st.in.Net.Bandwidth))
	if award <= 0 {
		return fullCandidate{}, 0, false
	}
	var pos int
	var travelD float64
	switch {
	case a.ExactRatioTSP:
		pos, travelD = st.christofidesDelta(c)
	case st.reference:
		pos, travelD = tsp.BestInsertion(st.tour, c, st.dist)
	default:
		// Bit-equal to BestInsertion: same hypotenuses, cached edges.
		pos, travelD = st.ins.bestInsertion(loc.Pos)
	}
	hoverE := st.in.Model.HoverEnergy(sojourn)
	travelE := st.in.Model.TravelEnergy(units.Meters(travelD))
	if curEnergy+hoverE+travelE > st.in.Budget()+1e-9 {
		so.pruned.Inc()
		return fullCandidate{}, 0, false
	}
	denom := hoverE + travelE
	ratio := math.Inf(1)
	if denom > 1e-12 {
		ratio = award.F() / denom.F()
	}
	return fullCandidate{loc: c, pos: pos, sojourn: sojourn, award: award, travelD: travelD}, ratio, true
}

// betterFull is the strict total order on candidates: higher ratio, then
// higher award, then lower id — the id tie-break makes the parallel scan
// bit-identical to the serial one.
func betterFull(c1 fullCandidate, r1 float64, c2 fullCandidate, r2 float64) bool {
	if r1 != r2 { //uavdc:allow floateq exact compare keeps the tie-break order total and bit-reproducible; an epsilon would break transitivity
		return r1 > r2
	}
	if c1.award != c2.award { //uavdc:allow floateq exact compare keeps the tie-break order total and bit-reproducible; an epsilon would break transitivity
		return c1.award > c2.award
	}
	return c1.loc < c2.loc
}

// pickNext returns the best-ratio feasible candidate outside the tour,
// fanning the scan across Workers goroutines when asked. The fast scan
// walks only residual-active candidates and records the ones it skips, so
// evals + skipped always reconciles with the reference scan's evals;
// ExactRatioTSP, whose pricing runs Christofides on the shared recorder,
// scans serially on the reference list. Both return bit-identical picks.
func (a *Algorithm2) pickNext(st *greedyState) (fullCandidate, bool) {
	cur := st.energy()
	ids := st.scanIdx().compact()
	st.ins.reset(st.tour.Len(), func(i int) geom.Point { return st.set.Locs[st.tour.Order[i]].Pos })
	evals := int64(0)
	for _, c := range ids {
		if !st.inTour[c] {
			evals++
		}
	}
	// The reference scan evaluates every candidate outside the tour.
	st.cSkipped.Add(int64(st.set.Len()-st.tour.Len()) - evals)
	workers := a.Workers
	if a.ExactRatioTSP {
		workers = 1
	}
	return scanBest(st.rec, workers, ids, func(c int, so scanObs) (fullCandidate, float64, bool) {
		if st.inTour[c] {
			return fullCandidate{}, 0, false
		}
		return a.evalFull(st, c, cur, so)
	}, betterFull)
}

// greedyState is the shared incremental machinery of Algorithms 2 and 3.
type greedyState struct {
	in       *Instance
	set      *hover.Set
	tour     tsp.Tour // over hover-set ids, depot always present
	dist     tsp.Metric
	inTour   []bool
	residual []units.Bits // remaining volume per sensor, MB
	// stops accumulates accepted stops keyed by hover-set id.
	sojourns  map[int]units.Seconds
	collected map[int]map[int]units.Bits // loc → sensor → MB
	hoverTime units.Seconds
	// rec is the instance's recorder (obs.Discard when uninstrumented);
	// cAccepted/cUpgraded are its cached accept-path counter handles.
	rec       obs.Recorder
	cAccepted obs.Counter
	cUpgraded obs.Counter
	cSkipped  obs.Counter
	// reference selects the retained full-scan path (Instance.Reference);
	// the default fast path prunes idx to the residual-active candidates
	// (built lazily so callers may seed residuals first) and prices
	// insertions through ins (per-iteration cached tour edges).
	reference bool
	idx       *scanIndex
	ins       insertionScratch
}

func newGreedyState(in *Instance, set *hover.Set) *greedyState {
	rec := in.obsRecorder()
	st := &greedyState{
		in:        in,
		set:       set,
		tour:      tsp.Tour{Order: []int{hover.DepotID}},
		inTour:    make([]bool, set.Len()),
		residual:  make([]units.Bits, len(in.Net.Sensors)),
		sojourns:  map[int]units.Seconds{},
		collected: map[int]map[int]units.Bits{},
		rec:       rec,
		cAccepted: rec.Counter(CounterAcceptedStops),
		cUpgraded: rec.Counter(CounterUpgradedStops),
		cSkipped:  rec.Counter(CounterScanSkippedDrained),
		reference: in.Reference,
	}
	st.dist = func(i, j int) float64 { return set.Dist(i, j) }
	st.inTour[hover.DepotID] = true
	for v := range st.residual {
		st.residual[v] = units.Bits(in.Net.Sensors[v].Data)
	}
	return st
}

// energy returns the actual energy of the current tour plus hover time.
func (st *greedyState) energy() units.Joules {
	return st.in.Model.TourEnergy(units.Meters(st.tour.Cost(st.dist)), st.hoverTime)
}

// scanIdx lazily builds the residual-active candidate index. Laziness
// matters for the LNS repair loop, which seeds residuals from a partially
// destroyed plan after constructing the state.
func (st *greedyState) scanIdx() *scanIndex {
	if st.idx == nil {
		st.idx = newScanIndex(st.set, st.residual, nil, st.reference)
	}
	return st.idx
}

// noteDrained tells the index sensor v just hit exactly zero residual.
func (st *greedyState) noteDrained(v int) {
	if st.idx != nil {
		st.idx.drained(v)
	}
}

// improveTour re-optimises the tour after an acceptance, through a dense
// submatrix over the tour's items (see tsp.ImproveMetric).
func (st *greedyState) improveTour() {
	tsp.ImproveMetric(&st.tour, st.dist, st.rec)
}

// acceptFull inserts the candidate, drains every still-loaded covered
// sensor completely, and re-optimises the tour order.
func (st *greedyState) acceptFull(c fullCandidate) {
	st.cAccepted.Inc()
	st.tour = tsp.Insert(st.tour, c.loc, c.pos)
	st.inTour[c.loc] = true
	st.sojourns[c.loc] = c.sojourn
	st.hoverTime += c.sojourn
	m := map[int]units.Bits{}
	for _, v := range st.set.Locs[c.loc].Covered {
		if st.residual[v] > 0 {
			m[v] = st.residual[v]
			st.residual[v] = 0
			st.noteDrained(v)
		}
	}
	st.collected[c.loc] = m
	st.improveTour()
}

// christofidesDelta prices candidate c by re-running Christofides over the
// selected set plus c (the literal Eq. 13). The returned position places c
// adjacent to its Christofides neighbours in the current tour as closely
// as cheapest insertion allows; the delta is the Christofides tour-length
// difference (clamped at ≥ 0).
func (st *greedyState) christofidesDelta(c int) (int, float64) {
	items := append(append([]int(nil), st.tour.Order...), c)
	full, err := tsp.Christofides(items, st.dist, st.rec)
	if err != nil {
		return tsp.BestInsertion(st.tour, c, st.dist)
	}
	tsp.ImproveMetric(&full, st.dist, st.rec)
	delta := full.Cost(st.dist) - st.tour.Cost(st.dist)
	if delta < 0 {
		delta = 0
	}
	pos, _ := tsp.BestInsertion(st.tour, c, st.dist)
	return pos, delta
}

// plan freezes the state into a Plan in tour order.
func (st *greedyState) plan(name string) *Plan {
	st.tour.RotateTo(hover.DepotID)
	p := &Plan{Algorithm: name, Depot: st.in.Net.Depot}
	for _, id := range st.tour.Order {
		if id == hover.DepotID {
			continue
		}
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

func sortCollections(cs []Collection) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Sensor < cs[j-1].Sensor; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
