package core

import (
	"slices"

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
	ExactRatioTSP bool //uavdc:allow deadexport the paper's literal Eq. 13 pricing, kept as the reference TestAlgorithm2ExactRatioTSPAgreesRoughly checks the incremental pricing against
}

// Name implements Planner.
func (a *Algorithm2) Name() string { return "algorithm2" }

// Plan implements Planner. It is the ratio greedy of Algorithm 3 at
// K = 1, as the paper defines it: each location's one level is its full
// residual drain, which the accepted stop takes whole.
func (a *Algorithm2) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tr := in.tracer()
	endPlan := tr.Begin(SpanPlanAlg2)
	endCand := tr.Begin(SpanPlanAlg2Candidates)
	set, err := in.buildCandidates()
	if err != nil {
		endCand()
		endPlan()
		return nil, err
	}
	endCand(trace.Int("candidates", set.Len()))
	st := newGreedyState(in, set)
	st.exactTSP = a.ExactRatioTSP
	st.reference = st.reference || a.ExactRatioTSP
	st.run(1, func() func(...trace.Attr) { return tr.Begin(SpanPlanAlg2Iterate) })
	p := st.plan(a.Name())
	endPlan(trace.Int("stops", len(p.Stops)))
	return p, nil
}

// greedyState is the one incremental machinery of Algorithms 2 and 3,
// the LNS repair loop and the residual replanner. Its route is the
// planners' closed depot tour or, when path is set, the replanner's open
// path to the depot; only the leaf methods for pricing (resetPricing,
// insertion), insert, energy, re-optimise (improveTour) and plan freeze
// tell the two shapes apart.
type greedyState struct {
	in       *Instance
	set      *hover.Set
	tour     tsp.Tour  // over hover-set ids, depot always present
	path     *openPath // nil means the route is tour
	dist     tsp.Metric
	budget   units.Joules
	inTour   []bool       // in the route; the depot always counts
	residual []units.Bits // remaining volume per sensor, MB
	// stops accumulates accepted stops keyed by hover-set id.
	sojourns  map[int]units.Seconds
	collected map[int]map[int]units.Bits // loc → sensor → MB
	hoverTime units.Seconds
	// exactTSP prices insertions with Christofides (Algorithm2.ExactRatioTSP).
	exactTSP bool
	// rec is the instance's recorder (obs.Discard when uninstrumented);
	// so and cAccepted/cUpgraded/cSkipped are its cached scan and
	// accept-path counter handles.
	rec       obs.Recorder
	so        scanObs
	cAccepted obs.Counter
	cUpgraded obs.Counter
	cSkipped  obs.Counter
	// excluded marks the replanner's no-hover candidates (nil: none);
	// neither scan ever evaluates them, and nExcluded, their count,
	// closes the evals + skipped reconciliation.
	excluded  []bool
	nExcluded int64
	// reference selects the retained full-scan path (Instance.Reference);
	// the default fast path prunes idx to the residual-active candidates
	// (built lazily so callers may seed residuals first), prices
	// insertions through ins (cached route edges plus per-location memos)
	// and reuses the level ladders through lad (built lazily
	// next to idx; nil on the reference path).
	reference bool
	idx       *scanIndex
	ins       insertionScratch
	lad       *ladderCache
	// before is improveTour's copy of the route order, to tell a reorder;
	// retour re-tours the closed tour on the fast path.
	before []int
	retour tsp.Retour
}

func newGreedyState(in *Instance, set *hover.Set) *greedyState {
	rec := in.obsRecorder()
	st := &greedyState{
		in:        in,
		set:       set,
		tour:      tsp.Tour{Order: []int{hover.DepotID}},
		budget:    in.Budget(),
		inTour:    make([]bool, set.Len()),
		residual:  make([]units.Bits, len(in.Net.Sensors)),
		sojourns:  map[int]units.Seconds{},
		collected: map[int]map[int]units.Bits{},
		rec:       rec,
		so:        newScanObs(rec),
		cAccepted: rec.Counter(CounterAcceptedStops),
		cUpgraded: rec.Counter(CounterUpgradedStops),
		cSkipped:  rec.Counter(CounterScanSkippedDrained),
		reference: in.Reference,
		ins:       insertionScratch{gen: 1},
	}
	st.dist = func(i, j int) float64 { return set.Dist(i, j) }
	st.inTour[hover.DepotID] = true
	for v := range st.residual {
		st.residual[v] = units.Bits(in.Net.Sensors[v].Data)
	}
	return st
}

// energy returns the nominal energy of the current route plus hover time.
func (st *greedyState) energy() units.Joules {
	var length float64
	if st.path != nil {
		length = st.path.length
	} else {
		length = st.tour.Cost(st.dist)
	}
	return st.in.Model.TourEnergy(units.Meters(length), st.hoverTime)
}

// scanIdx lazily builds the residual-active candidate index. Laziness
// matters for the LNS repair loop, which seeds residuals from a partially
// destroyed plan after constructing the state.
func (st *greedyState) scanIdx() *scanIndex {
	if st.idx == nil {
		st.idx = newScanIndex(st.set, st.residual, st.excluded, st.reference)
	}
	return st.idx
}

// ladders lazily builds the ladder cache for K = k on the fast
// path; it stays nil on the reference path and past ladderCacheMaxRungs.
func (st *greedyState) ladders(k int) *ladderCache {
	if st.lad == nil && !st.reference && st.set.Len()*k <= ladderCacheMaxRungs {
		st.lad = newLadderCache(st.set.Len(), k)
	}
	return st.lad
}

// noteDrained tells the index sensor v just hit exactly zero residual.
func (st *greedyState) noteDrained(v int) {
	if st.idx != nil {
		st.idx.drained(v)
	}
}

// noteTaken tells the ladder cache sensor v's residual just fell: every
// ladder over v must be rebuilt.
func (st *greedyState) noteTaken(v int) {
	if st.lad != nil {
		for _, c := range st.idx.locsOf(v) {
			st.lad.fresh[c] = false
		}
	}
}

// resetPricing loads the current route into the insertion scratch: the
// closed tour, or the path from its start through its stops to its end.
func (st *greedyState) resetPricing() {
	if st.ins.memo == nil && !st.reference {
		st.ins.memo = make([]insMemo, st.set.Len())
	}
	if st.path != nil {
		st.ins.reset(len(st.path.order)+2, func(i int) geom.Point { return st.path.node(st.set, i) }, false)
		return
	}
	st.ins.reset(st.tour.Len(), func(i int) geom.Point { return st.set.Locs[st.tour.Order[i]].Pos }, true)
}

// insertion prices adding location c to the route: the insertion position
// and the route-length increase in metres. The fast path reads c's memo
// against the scratch resetPricing loaded; the reference path prices
// against the route itself, and exactTSP by re-running Christofides.
func (st *greedyState) insertion(c int) (int, float64) {
	switch {
	case st.exactTSP:
		return st.christofidesDelta(c)
	case !st.reference:
		return st.ins.memoized(c, st.set.Locs[c].Pos)
	case st.path != nil:
		return st.path.insertion(st.set, c)
	default:
		return tsp.BestInsertion(st.tour, c, st.dist)
	}
}

// insert adds location c to the route at pos; a path's running length
// grows by the priced delta travelD. On the fast path the scratch reloads
// the new route and the active locations' memos absorb the split edge.
func (st *greedyState) insert(c, pos int, travelD float64) {
	if st.path != nil {
		st.path.order = slices.Insert(st.path.order, pos, c)
		st.path.length += travelD
	} else {
		st.tour.Order = slices.Insert(st.tour.Order, pos, c)
	}
	st.inTour[c] = true
	if !st.reference {
		j := st.ins.edgeAt(pos)
		st.resetPricing()
		st.ins.split(j, st.idx.active, st.set.Locs, st.inTour)
	}
}

// order returns the route's current visiting order.
func (st *greedyState) order() []int {
	if st.path != nil {
		return st.path.order
	}
	return st.tour.Order
}

// improveTour re-optimises the route after an acceptance: the path with
// its fixed-endpoint 2-opt, the tour with tsp's polish — on the fast path by
// st.retour, which grows its matrix by one row and column per inserted
// location and replays the search from the tour's last fixed point, on
// the reference path by tsp.ImproveMetric. When the order changed, the
// insertion memos follow a closed tour of four or more stops across the
// re-tour (insertionScratch.retour); any other reorder voids them all.
func (st *greedyState) improveTour() {
	st.before = append(st.before[:0], st.order()...)
	switch {
	case st.path != nil:
		st.path.improve(st.set)
	case st.reference:
		tsp.ImproveMetric(&st.tour, st.dist, st.rec)
	default:
		st.retour.Improve(&st.tour, st.dist, st.rec)
	}
	switch {
	case slices.Equal(st.before, st.order()):
	case st.path != nil || st.ins.memo == nil || st.idx == nil || len(st.before) < 4:
		st.ins.gen++
	default:
		st.resetPricing()
		st.ins.retour(st.before, st.tour.Order, st.idx.active, st.set.Locs, st.inTour)
	}
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

// plan freezes the state into a Plan in route order: the tour from the
// depot, or the path's stops, to be flown from its start.
func (st *greedyState) plan(name string) *Plan {
	var ids []int
	if st.path != nil {
		ids = st.path.order
	} else {
		st.tour.RotateTo(hover.DepotID)
		ids = st.tour.Order[1:]
	}
	p := &Plan{Algorithm: name, Depot: st.in.Net.Depot}
	for _, id := range ids {
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
