package core

import (
	"math"
	"slices"

	"uavdc/internal/hover"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// Algorithm3 is the heuristic for the partial data-collection maximisation
// problem (Section VI). Each real hovering location s_j spawns K virtual
// locations s_{j,k} with sojourn k·t(s_j)/K and award per Eq. 4; the greedy
// ρ-ratio loop of Algorithm 2 then runs over the virtual candidates with
// two extra rules: (i) at most one virtual location per real location may
// be in the tour — choosing a second one upgrades the stop in place
// (Lemma 2), paying only the extra hover energy; (ii) after every
// acceptance, the awards and sojourns of the candidates covering a sensor
// the accepted stop took data from are recomputed against the residual
// volumes, because such a sensor may have been partially drained. Every
// other candidate's awards and sojourns are unchanged and are reused, and
// so is its last choice of level while its insertion cost is unchanged
// and that level still fits the budget (fastscan.go): only the energy
// check and the chosen level's ratio are redone against the grown route.
//
// Implementation note: the sojourn ladder is derived from the *residual*
// drain time of each location rather than frozen at the initial t(s_j).
// The paper's Algorithm 3 (line 12) already recomputes t′ and P′ against
// residuals for overlapping candidates; deriving the K levels from the
// current t′ applies that recomputation uniformly and makes K = 1
// Algorithm 2 exactly: its one level is t′, at which partialTake takes
// every covered residual whole, and Algorithm2.Plan is this scan at
// K = 1. The reference path (Instance.Reference) re-derives every ladder
// at every evaluation.
type Algorithm3 struct{}

// Name implements Planner.
func (a *Algorithm3) Name() string { return "algorithm3" }

type partialCandidate struct {
	loc     int           // hover-set id
	pos     int           // insertion position (new bases only)
	upgrade bool          // true when loc is already in the route
	sojourn units.Seconds // new total sojourn at the stop
	gain    units.Bits    // extra MB collected
	travelD float64       // route-length increase in metres (new bases only)
}

// Plan implements Planner.
func (a *Algorithm3) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tr := in.tracer()
	endPlan := tr.Begin(SpanPlanAlg3, trace.Int("k", max(in.K, 1)))
	endCand := tr.Begin(SpanPlanAlg3Candidates)
	set, err := in.buildCandidates()
	if err != nil {
		endCand()
		endPlan()
		return nil, err
	}
	endCand(trace.Int("candidates", set.Len()))
	st := newGreedyState(in, set)
	st.run(in.K, func() func(...trace.Attr) { return tr.Begin(SpanPlanAlg3Iterate) })
	p := st.plan(a.Name())
	endPlan(trace.Int("stops", len(p.Stops)))
	return p, nil
}

// betterPartial is the strict total order on candidates: higher ratio,
// then higher gain, then lower location id, then lower sojourn (level).
func betterPartial(c1 partialCandidate, r1 float64, c2 partialCandidate, r2 float64) bool {
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

// run is the ratio-greedy loop of Algorithms 2 and 3, LNS repair and the
// residual replanner at K = k (K < 1 counts as 1): it accepts the best
// feasible candidate until none is left. iterate, when non-nil, opens the
// caller's span around each iteration, which ends with the accepted
// location, or with none on the final, empty pick.
func (st *greedyState) run(k int, iterate func() func(...trace.Attr)) {
	k = max(k, 1)
	for {
		end := func(...trace.Attr) {}
		if iterate != nil {
			end = iterate()
		}
		best, ok := st.pickPartial(k)
		if !ok {
			end()
			return
		}
		st.acceptPartial(best)
		end(trace.Int("loc", best.loc))
	}
}

// pickPartial is the ratio-greedy argmax step (Eq. 13) of Algorithms 2
// and 3, LNS repair and the residual replanner: it returns the best
// feasible (location, level) pair, ok = false when there is none. The
// fast scan walks only residual-active, non-excluded locations — an
// inactive location can produce neither a positive full award nor a
// positive partial gain, and a fully drained in-route stop has no level
// above its current sojourn, so skipping both is bit-equivalent — and
// evalLoc re-scores a location only when its ladder, its insertion delta
// or the budget test of its last offer changed. The skip count and the
// reused-offer count reconcile its evals with the reference scan's, which
// scores every level of every non-excluded location each iteration.
func (st *greedyState) pickPartial(k int) (partialCandidate, bool) {
	cur := st.energy()
	ids := st.scanIdx().compact()
	lad := st.ladders(k)
	st.resetPricing()
	st.cSkipped.Add(int64(st.set.Len()-1) - st.nExcluded - int64(len(ids)))
	best, bestRatio := partialCandidate{loc: -1}, -1.0
	for _, c := range ids {
		if cand, ratio, ok := st.evalLoc(lad, k, int(c), cur); ok && betterPartial(cand, ratio, best, bestRatio) {
			best, bestRatio = cand, ratio
		}
	}
	return best, best.loc >= 0
}

// evalLoc returns location c's best candidate under the total order. On
// the fast path it first tries c's last offer: while the ladder is fresh,
// the insertion delta is bit-identical and cur has not fallen, the
// offer's winner stands if it still passes the budget test (see offer),
// so only that test, over every rung for the pruned count, and the
// winner's ratio are redone. Otherwise it scores every rung against the
// route and records the new offer.
func (st *greedyState) evalLoc(lad *ladderCache, k, c int, cur units.Joules) (partialCandidate, float64, bool) {
	var last *offer
	if lad != nil && lad.fresh[c] && lad.offers[c].scored && cur >= lad.offers[c].cur {
		last = &lad.offers[c]
	}
	rungs := st.ladder(lad, k, c)
	cand := partialCandidate{loc: c, upgrade: st.inTour[c]}
	var travelE units.Joules
	if len(rungs) > 0 && !cand.upgrade {
		cand.pos, cand.travelD = st.insertion(c)
		travelE = st.in.Model.TravelEnergy(units.Meters(cand.travelD))
	}
	if last != nil && sameBits(last.travelD, cand.travelD) && (last.win == 0 || !st.overBudget(cur, rungs[last.win-1], travelE)) {
		st.so.reused.Inc()
		for _, r := range rungs {
			if st.overBudget(cur, r, travelE) {
				st.so.pruned.Inc()
			}
		}
		if last.win == 0 {
			return partialCandidate{loc: -1}, -1, false
		}
		r := rungs[last.win-1]
		cand.sojourn, cand.gain = r.sojourn, r.gain
		return cand, rungRatio(r, travelE), true
	}
	st.so.evalHit(c)
	best, bestRatio, win := partialCandidate{loc: -1}, -1.0, 0
	for i, r := range rungs {
		if st.overBudget(cur, r, travelE) {
			st.so.pruned.Inc()
			continue
		}
		cand.sojourn, cand.gain = r.sojourn, r.gain
		if ratio := rungRatio(r, travelE); betterPartial(cand, ratio, best, bestRatio) {
			best, bestRatio, win = cand, ratio, i+1
		}
	}
	if lad != nil {
		lad.offers[c] = offer{travelD: cand.travelD, cur: cur, win: int32(win), scored: true}
	}
	return best, bestRatio, best.loc >= 0
}

// overBudget reports that a stop taking rung r at travel energy travelE
// would exceed the budget from route energy cur. The test is monotone in
// cur: rounding is monotone, so a rung over budget at some cur is over it
// at every higher one.
func (st *greedyState) overBudget(cur units.Joules, r rung, travelE units.Joules) bool {
	return cur+r.hoverE+travelE > st.budget+1e-9
}

// rungRatio is Eq. 13's ratio for rung r at travel energy travelE: the
// gain per joule, +Inf when the energy is nil.
func rungRatio(r rung, travelE units.Joules) float64 {
	denom := r.hoverE + travelE
	if denom > 1e-12 {
		return r.gain.F() / denom.F()
	}
	return math.Inf(1)
}

// ladder returns location c's rungs: lad's cached ones while fresh,
// otherwise rebuilt (into lad when there is one) from the residual
// full-drain time, which divides into the K levels; the top level is the
// full drain itself.
func (st *greedyState) ladder(lad *ladderCache, k, c int) []rung {
	if lad != nil && lad.fresh[c] {
		return lad.rungs[c*k : c*k+int(lad.n[c])]
	}
	st.so.resid.Inc()
	var out []rung
	if lad != nil {
		out = lad.rungs[c*k : c*k : c*k+k]
	}
	in := st.in
	loc := &st.set.Locs[c]
	bw := units.BitsPerSecond(in.Net.Bandwidth)
	fullSojourn, fullAward := hover.ResidualDrain(loc.Covered, st.residual, loc.Rates, bw)
	if fullAward > 0 || st.inTour[c] {
		prevSojourn := st.sojourns[c] // 0 when not in the route
		for level := 1; level <= k; level++ {
			sojourn := fullSojourn // the top level exactly: k·t/k can fall an ulp short
			if level < k {
				sojourn = units.Seconds(float64(level) * fullSojourn.F() / float64(k))
			}
			if sojourn <= prevSojourn+1e-12 {
				continue // not an upgrade; paper discards dominated levels
			}
			out = append(out, rung{sojourn: sojourn, hoverE: in.Model.HoverEnergy(sojourn - prevSojourn)})
		}
		priced := out
		if !st.inTour[c] && len(out) > 0 {
			// A new stop's top level is the full drain time of every
			// covered sensor, so it takes each residual whole: the award.
			priced = out[:len(out)-1]
			out[len(out)-1].gain = fullAward
		}
		if len(priced) > 0 {
			partialTake(loc.Covered, st.residual, st.collected[c], loc.Rates, bw, priced, nil)
		}
		out = slices.DeleteFunc(out, func(r rung) bool { return r.gain <= 1e-12 })
	}
	if lad != nil {
		lad.n[c] = int32(len(out))
		lad.fresh[c] = true
	}
	return out
}

// partialTake adds to each rung's gain how much more each covered sensor
// can upload at a stop of the rung's total sojourn. A stay that reaches
// the sensor's drain time — what this stop already took plus its
// residual, at its rate — takes the residual itself; a shorter one takes
// rate_v·sojourn for the whole stay minus what this stop already took,
// at most the residual. The take is decided by time because rate·(d/rate)
// can fall an ulp short of d, which would leave a full drain with a
// residue. One pass over the sensors prices every rung, so each sensor's
// drain time is computed once. rates is parallel to covered; nil means
// the constant bandwidth. take, when non-nil, records each sensor's
// amount at a single rung.
func partialTake(covered []int, residual []units.Bits, already map[int]units.Bits, rates []units.BitsPerSecond, bandwidth units.BitsPerSecond, rungs []rung, take map[int]units.Bits) {
	for i, v := range covered {
		res := residual[v]
		if res <= 0 {
			continue
		}
		r := bandwidth
		if rates != nil {
			r = rates[i]
		}
		a := already[v]
		drain := units.TransferTime(a+res, r)
		for j := range rungs {
			amt := res
			if s := rungs[j].sojourn; s < drain {
				amt = units.Min(res, units.Transfer(r, s)-a)
			}
			if amt > 0 {
				rungs[j].gain += amt
				if take != nil {
					take[v] = amt
				}
			}
		}
	}
}

// acceptPartial applies a partial candidate: inserts or upgrades the stop,
// moves the taken volumes from residuals into the stop's ledger, and
// re-optimises the route. The take is built here, for the winner only, by
// partialTake at the winner's sojourn, the amounts that priced its gain:
// a sensor whose drain time the stop reaches gives its whole residual and
// ends at exactly 0. It is never empty (the gain is positive), so the
// accepted location is among the locations whose ladders noteTaken marks
// for rebuilding.
func (st *greedyState) acceptPartial(c partialCandidate) {
	loc := &st.set.Locs[c.loc]
	take := make(map[int]units.Bits, len(loc.Covered))
	at := [1]rung{{sojourn: c.sojourn}}
	partialTake(loc.Covered, st.residual, st.collected[c.loc], loc.Rates, units.BitsPerSecond(st.in.Net.Bandwidth), at[:], take)
	if c.upgrade {
		st.cUpgraded.Inc()
	} else {
		st.cAccepted.Inc()
		st.insert(c.loc, c.pos, c.travelD)
		st.collected[c.loc] = map[int]units.Bits{}
	}
	st.hoverTime += c.sojourn - st.sojourns[c.loc]
	st.sojourns[c.loc] = c.sojourn
	ledger := st.collected[c.loc]
	for v, amt := range take {
		ledger[v] += amt
		st.residual[v] -= amt
		if st.residual[v] <= 0 {
			st.residual[v] = 0
			st.noteDrained(v)
		}
		st.noteTaken(v)
	}
	st.improveTour()
}
