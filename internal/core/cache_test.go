package core

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// These tests hold the greedy state's incremental caches to a fresh
// recomputation after every acceptance of a seeded Algorithm 3 run, on the
// planners' closed tour and on the replanner's open path: every fresh
// cached ladder must equal the ladder rebuilt from the current residuals,
// and every live insertion memo must equal a full scan of the current
// route, bit for bit. Each run must include an in-place upgrade and an
// acceptance after which the re-optimisation reordered the route.

// cacheRun drives st through Algorithm 3's loop with K = k, calling check
// after every acceptance, and reports how many acceptances were upgrades
// and how many reordered the route.
func cacheRun(t *testing.T, name string, st *greedyState, k int, check func(st *greedyState)) (upgrades, reorders int) {
	t.Helper()
	for {
		best, ok := st.pickPartial(k)
		if !ok {
			break
		}
		if best.upgrade {
			upgrades++
		}
		st.acceptPartial(best)
		if !slices.Equal(st.before, st.order()) {
			reorders++
		}
		check(st)
	}
	if upgrades == 0 || reorders == 0 {
		t.Fatalf("%s: run had %d upgrades and %d reorders; need both", name, upgrades, reorders)
	}
	return upgrades, reorders
}

// namedState is one greedy state under test.
type namedState struct {
	name string
	st   *greedyState
}

// cacheStates returns a fresh closed-tour state and a fresh open-path
// state (mid-flight, with a no-hover disc) over the same seeded field.
func cacheStates(t *testing.T, k int) []namedState {
	t.Helper()
	in := mediumInstance(t, 2, 2e4)
	in.Delta = 12
	in.K = k
	set, err := in.buildCandidates()
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&Algorithm3{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	zone := full.Stops[2].Pos
	return []namedState{
		{"tour", newGreedyState(in, set)},
		{"path", newPathState(in, set, ResidualState{
			Pos:      full.Stops[1].Pos,
			Budget:   in.Model.Capacity / 2,
			Residual: residualAfter(in, full, 2),
			Exclude:  func(p geom.Point) bool { return p.Dist(zone) < 30 },
		})},
	}
}

// TestLadderCacheMatchesFresh: after every acceptance, each fresh cached
// ladder equals the ladder rebuilt without the cache.
func TestLadderCacheMatchesFresh(t *testing.T) {
	const k = 3
	for _, ns := range cacheStates(t, k) {
		name, st := ns.name, ns.st
		checked := 0
		upgrades, reorders := cacheRun(t, name, st, k, func(st *greedyState) {
			for _, c := range st.scanIdx().compact() {
				if !st.lad.fresh[c] {
					continue
				}
				checked++
				got := st.lad.rungs[int(c)*k : int(c)*k+int(st.lad.n[c])]
				want := st.ladder(nil, k, int(c))
				if len(got) != len(want) {
					t.Fatalf("%s: location %d: %d cached rungs, %d fresh", name, c, len(got), len(want))
				}
				for i := range got {
					if !sameBits(got[i].sojourn.F(), want[i].sojourn.F()) || !sameBits(got[i].gain.F(), want[i].gain.F()) || !sameBits(got[i].hoverE.F(), want[i].hoverE.F()) {
						t.Fatalf("%s: location %d rung %d: cached %+v, fresh %+v", name, c, i, got[i], want[i])
					}
				}
			}
		})
		if checked == 0 {
			t.Fatalf("%s: no fresh ladder was checked", name)
		}
		t.Logf("%s: %d ladders checked over %d upgrades and %d reorders", name, checked, upgrades, reorders)
	}
}

// TestInsertionMemoMatchesScan: after every acceptance, each live
// insertion memo of a location outside the route equals a full scan of
// the current route: the edge and delta bit for bit, and a tie flag
// wherever the scan sees a tie (a memo may keep a tie whose partner edge
// is gone). On the closed tour, memos must also survive re-tours.
func TestInsertionMemoMatchesScan(t *testing.T) {
	const k = 3
	for _, ns := range cacheStates(t, k) {
		name, st := ns.name, ns.st
		checked, carried := 0, 0
		upgrades, reorders := cacheRun(t, name, st, k, func(st *greedyState) {
			reordered := !slices.Equal(st.before, st.order())
			st.resetPricing()
			for _, c := range st.scanIdx().compact() {
				m := st.ins.memo[c]
				if m.gen != st.ins.gen || st.inTour[c] {
					continue
				}
				checked++
				if reordered {
					carried++
				}
				e, d, tie := st.ins.scan(st.set.Locs[c].Pos)
				if int(m.edge) != e || !sameBits(m.d, d) || tie && !m.tie {
					t.Fatalf("%s: location %d: memo (%d, %v, tie %v), scan (%d, %v, tie %v)", name, c, m.edge, m.d, m.tie, e, d, tie)
				}
			}
		})
		if checked == 0 {
			t.Fatalf("%s: no live memo was checked", name)
		}
		if name == "tour" && carried == 0 {
			t.Fatalf("%s: no memo was carried across a re-tour", name)
		}
		t.Logf("%s: %d memos checked (%d right after a re-tour) over %d upgrades and %d reorders", name, checked, carried, upgrades, reorders)
	}
}

// tally is an obs.Counter a test reads directly.
type tally int64

func (c *tally) Inc()        { *c++ }
func (c *tally) Add(n int64) { *c += tally(n) }

// TestOfferMatchesRescoring: after every acceptance, each active
// location's evaluation at route energies that fall and then rise across
// every rung's budget threshold returns what a fresh scoring (its offer
// cleared) returns: the candidate, the ratio bits and the number of
// rungs pruned over budget. Some of those answers must come from reused
// offers, and a repeat at an unchanged energy always does.
func TestOfferMatchesRescoring(t *testing.T) {
	const k = 3
	for _, ns := range cacheStates(t, k) {
		name, st := ns.name, ns.st
		var pruned, reused tally
		st.so.pruned, st.so.reused = &pruned, &reused
		checked, reuses := 0, 0
		cacheRun(t, name, st, k, func(st *greedyState) {
			st.resetPricing()
			lad := st.ladders(k)
			for _, id := range st.scanIdx().compact() {
				c := int(id)
				st.evalLoc(lad, k, c, st.energy()) // freshens the ladder and the memo
				u := reused
				if st.evalLoc(lad, k, c, st.energy()); reused != u+1 {
					t.Fatalf("%s: location %d: a repeat at the same route energy re-scored its offer", name, c)
				}
				rungs := st.ladder(lad, k, c)
				var travelE units.Joules
				if len(rungs) > 0 && !st.inTour[c] {
					_, d := st.insertion(c)
					travelE = st.in.Model.TravelEnergy(units.Meters(d))
				}
				var curs []units.Joules
				for _, r := range rungs {
					edge := st.budget - r.hoverE - travelE
					curs = append(curs, edge+1, edge-1)
				}
				slices.Sort(curs)
				rising := slices.Clone(curs)
				slices.Reverse(curs)
				for _, cur := range append(curs, rising...) {
					p0, u0 := pruned, reused
					got, gotRatio, gotOK := st.evalLoc(lad, k, c, cur)
					p1 := pruned
					lad.offers[c] = offer{}
					want, wantRatio, wantOK := st.evalLoc(lad, k, c, cur)
					if got != want || gotOK != wantOK || !sameBits(gotRatio, wantRatio) || p1-p0 != pruned-p1 {
						t.Fatalf("%s: location %d at cur %v: offer gives (%+v, %v, %v) pruning %d, rescoring (%+v, %v, %v) pruning %d",
							name, c, cur, got, gotRatio, gotOK, p1-p0, want, wantRatio, wantOK, pruned-p1)
					}
					checked++
					if reused > u0 {
						reuses++
					}
				}
			}
		})
		if reuses == 0 {
			t.Fatalf("%s: no evaluation of %d reused an offer", name, checked)
		}
		t.Logf("%s: %d evaluations checked, %d from a reused offer", name, checked, reuses)
	}
}

// TestRetourMatchesImproveMetric: after every acceptance of the seeded
// closed-tour run, the fast path's re-tour (greedyState.retour, a matrix
// over insertion slots and a replay from the last fixed point) leaves the
// order tsp.ImproveMetric gives on the same pre-improve tour, and records
// the same tsp counters.
func TestRetourMatchesImproveMetric(t *testing.T) {
	const k = 3
	st := cacheStates(t, k)[0].st
	reg := obs.NewRegistry()
	st.rec = reg
	prev := map[string]int64{}
	checked := 0
	upgrades, reorders := cacheRun(t, "tour", st, k, func(st *greedyState) {
		want := tsp.Tour{Order: slices.Clone(st.before)}
		wreg := obs.NewRegistry()
		tsp.ImproveMetric(&want, st.dist, wreg)
		if !slices.Equal(st.tour.Order, want.Order) {
			t.Fatalf("acceptance %d: order %v, ImproveMetric gives %v", checked, st.tour.Order, want.Order)
		}
		now := reg.Snapshot().Counters
		wc := wreg.Snapshot().Counters
		for _, name := range slices.Sorted(maps.Keys(now)) {
			if !strings.HasPrefix(name, "tsp.") {
				continue
			}
			if got, w := now[name]-prev[name], wc[name]; got != w {
				t.Fatalf("acceptance %d: %s moved by %d, ImproveMetric records %d", checked, name, got, w)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(wc)) {
			if _, ok := now[name]; !ok {
				t.Fatalf("acceptance %d: %s not recorded", checked, name)
			}
		}
		prev = now
		checked++
	})
	t.Logf("%d acceptances checked, %d upgrades and %d reorders", checked, upgrades, reorders)
}

// TestLadderCachePastCapMatchesReference: with K so large that the ladder
// cache would exceed ladderCacheMaxRungs, the fast path holds no ladders,
// re-derives them at each evaluation, and still plans byte-identically to
// the reference path.
func TestLadderCachePastCapMatchesReference(t *testing.T) {
	in := fuzzInstance(3, 4, 0, fuzzZeroVolume, 3000)
	set, err := in.buildCandidates()
	if err != nil {
		t.Fatal(err)
	}
	in.K = ladderCacheMaxRungs/set.Len() + 1
	if newGreedyState(in, set).ladders(in.K) != nil {
		t.Fatalf("K = %d over %d locations built a ladder cache", in.K, set.Len())
	}
	plans := make([][]byte, 2)
	for i, ref := range []bool{true, false} {
		run := *in
		run.Reference = ref
		p, err := (&Algorithm3{}).Plan(&run)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Stops) == 0 {
			t.Fatal("empty plan")
		}
		if plans[i], err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
	}
	if string(plans[0]) != string(plans[1]) {
		t.Fatalf("K = %d: plans differ\nreference %s\nfast      %s", in.K, plans[0], plans[1])
	}
}
