package core

import (
	"math/rand"
	"slices"

	"uavdc/internal/hover"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// LNSPlanner wraps a base planner (Algorithm 3 by default) in a
// destroy-and-repair large-neighbourhood search: starting from the base
// plan, each round evicts a random fraction of the stops (returning their
// collections to the residual pool) and lets the greedy partial-collection
// machinery repack the freed energy; the best plan found is kept. Greedy
// ρ-ratio construction is myopic — early cheap stops can crowd out better
// combinations — and the paper leaves improvement heuristics to future
// work; this planner is that extension, deterministic under Seed.
type LNSPlanner struct {
	// Base produces the starting plan; nil means Algorithm 3.
	Base Planner
	// Rounds is the number of destroy/repair iterations (default 20).
	Rounds int //uavdc:allow deadexport tests pin their plans at a few rounds; a constant would re-seed TestLNSImprovesSomewhere
	// Seed drives the eviction choices.
	Seed int64 //uavdc:allow deadexport tests pin their plans at fixed seeds; a constant would re-seed TestLNSImprovesSomewhere
}

// lnsDestroyFraction is the share of stops evicted per LNS round.
const lnsDestroyFraction = 0.3

// residueRoundoff bounds, relative to a sensor's data, the residue that
// subtracting the amounts of a sensor a plan or a mission drained leaves:
// each subtraction rounds by at most an ulp of the data, about 1.1e-16 of
// it, so a sensor collected at a few stops is left far below 1e-12 of
// its data, and any take a stop prices lies far above. LNS and the
// replanner seed a residual at or below it as 0, a drained sensor.
const residueRoundoff = 1e-12

// Name implements Planner.
func (l *LNSPlanner) Name() string { return "lns" }

// Plan implements Planner.
func (l *LNSPlanner) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	base := l.Base
	if base == nil {
		base = &Algorithm3{}
	}
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 20
	}
	best, err := base.Plan(in)
	if err != nil {
		return nil, err
	}
	set, err := in.buildCandidates()
	if err != nil {
		return nil, err
	}
	// Map stop positions back to hover-set ids; plans from foreign base
	// planners (e.g. the benchmark, whose stops are not grid candidates)
	// cannot be destroyed-and-repaired, so fall back to the base plan.
	if !stopsAreCandidates(best, set) {
		return best, nil
	}

	rec := in.obsRecorder()
	cRounds := rec.Counter(CounterLNSRounds)
	cImproved := rec.Counter(CounterLNSImprovements)
	rng := rand.New(rand.NewSource(l.Seed))
	for round := 0; round < rounds; round++ {
		cRounds.Inc()
		cur := rebuildState(in, set, best, rng)
		cur.run(in.K, nil)
		trial := cur.plan(l.Name())
		if trial.Collected() > best.Collected()+1e-9 {
			cImproved.Inc()
			best = trial
		}
	}
	out := *best
	out.Algorithm = l.Name()
	return &out, nil
}

// stopsAreCandidates reports whether every stop carries a valid hover-set
// id matching its position.
func stopsAreCandidates(p *Plan, set *hover.Set) bool {
	for i := range p.Stops {
		id := p.Stops[i].LocID
		if id <= 0 || id >= set.Len() || set.Locs[id].Pos != p.Stops[i].Pos {
			return false
		}
	}
	return true
}

// rebuildState reconstructs greedy state from a plan with a random
// lnsDestroyFraction of its stops (at least one) evicted. The residuals
// are seeded below before the fast scan index exists (it is built lazily
// on the first pickPartial), so the index always observes them in full.
func rebuildState(in *Instance, set *hover.Set, p *Plan, rng *rand.Rand) *greedyState {
	st := newGreedyState(in, set)
	n := len(p.Stops)
	evict := int(lnsDestroyFraction * float64(n))
	if evict < 1 && n > 0 {
		evict = 1
	}
	evicted := map[int]bool{}
	for _, i := range rng.Perm(n)[:evict] {
		evicted[i] = true
	}
	// A sensor's residual is what the plan left of it plus what the
	// evicted stops took. What the plan left is its data less every
	// amount; of a sensor the plan drained it leaves nothing, not the
	// few-ulp residue that subtraction rounds to, which a later stop
	// could collect. Summing the evicted amounts instead of subtracting
	// the kept ones gives them back exactly, so re-inserting a stop at
	// its old sojourn drains what it took before.
	left := slices.Clone(st.residual)
	clear(st.residual)
	for i := range p.Stops {
		stop := &p.Stops[i]
		for _, c := range stop.Collected {
			left[c.Sensor] -= units.Bits(c.Amount)
			if evicted[i] {
				st.residual[c.Sensor] += units.Bits(c.Amount)
			}
		}
		if evicted[i] {
			continue
		}
		id := stop.LocID
		pos, _ := tsp.BestInsertion(st.tour, id, st.dist)
		st.tour.Order = slices.Insert(st.tour.Order, pos, id)
		st.inTour[id] = true
		st.sojourns[id] = units.Seconds(stop.Sojourn)
		st.hoverTime += units.Seconds(stop.Sojourn)
		ledger := map[int]units.Bits{}
		for _, c := range stop.Collected {
			ledger[c.Sensor] += units.Bits(c.Amount)
		}
		st.collected[id] = ledger
	}
	for v, r := range left {
		if r > residueRoundoff*units.Bits(in.Net.Sensors[v].Data) {
			st.residual[v] += r
		}
	}
	st.improveTour()
	return st
}
