package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"uavdc/internal/hover"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// drainCheck returns an iterate closure for greedyState.run that holds
// every acceptance to the full-drain property: a sensor covered by the
// accepted stop whose stay reached the sensor's drain time — what the
// stop had taken from it plus its residual, at its rate — ends the
// acceptance with no residual. The residuals are the greedy state's own.
// It counts the sensors whose drain time was reached into *reached.
// Before each pick it also checks that a new stop's full-drain level
// gains exactly the location's award, which ladder uses without pricing
// that level.
func drainCheck(t *testing.T, name string, st *greedyState, reached *int) func() func(...trace.Attr) {
	t.Helper()
	residual := make([]units.Bits, len(st.residual))
	before := map[int]map[int]units.Bits{}
	bw := units.BitsPerSecond(st.in.Net.Bandwidth)
	return func() func(...trace.Attr) {
		for c := 1; c < st.set.Len(); c++ {
			loc := &st.set.Locs[c]
			full, award := hover.ResidualDrain(loc.Covered, st.residual, loc.Rates, bw)
			if st.inTour[c] || award <= 0 {
				continue
			}
			at := []rung{{sojourn: full}}
			partialTake(loc.Covered, st.residual, nil, loc.Rates, bw, at, nil)
			if !sameBits(at[0].gain.F(), award.F()) {
				t.Errorf("%s: location %d's full drain takes %v, its award is %v", name, c, at[0].gain, award)
			}
		}
		copy(residual, st.residual)
		clear(before)
		for c, ledger := range st.collected {
			before[c] = maps.Clone(ledger)
		}
		return func(attrs ...trace.Attr) {
			if len(attrs) == 0 {
				return // the final pick found nothing
			}
			c := int(attrs[0].Num)
			loc := &st.set.Locs[c]
			for i, v := range loc.Covered {
				r := bw
				if loc.Rates != nil {
					r = loc.Rates[i]
				}
				if residual[v] <= 0 || st.sojourns[c] < units.TransferTime(before[c][v]+residual[v], r) {
					continue
				}
				*reached++
				if st.residual[v] != 0 {
					t.Errorf("%s: stop %d stayed %v s, sensor %d's drain time, and left it %v MB", name, c, st.sojourns[c], v, st.residual[v])
				}
			}
		}
	}
}

// TestFullDrainLeavesNoResidue: after every acceptance of Algorithm 3 at
// K ∈ {1, 2, 3, 4, 5, 7}, of the LNS repair and of the residual
// replanner, no sensor keeps a positive residual once a stop covering it
// stayed for its drain time. rate·(d/rate) can fall an ulp short of d, so
// a take priced by volume alone would leave residues that keep their
// locations in the scan. No residue below 1e-9 MB may remain either:
// not at the end of Algorithm 3 from full sensors, not in the state
// rebuildState seeds from a plan with some stops evicted, whose amounts
// sum over several stops with rounding, nor at the end of its repair;
// and an LNS plan may not collect below 1e-9 MB at a stop. The
// replanner's state starts from
// residuals this test subtracts from a plan, so only its acceptances are
// checked.
func TestFullDrainLeavesNoResidue(t *testing.T) {
	reached := 0
	run := func(name string, st *greedyState, k int) {
		st.run(k, drainCheck(t, name, st, &reached))
	}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, k := range []int{1, 2, 3, 4, 5, 7} {
			in := kInstance(mediumInstance(t, seed, 2.5e4), k)
			if seed%3 == 0 {
				in = kInstance(radioInstance(t, seed, 2.5e4), k)
			}
			set, err := in.buildCandidates()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d K %d", seed, k)
			st := newGreedyState(in, set)
			run("algorithm3 "+name, st, k)
			noResidue(t, "algorithm3 "+name, st.residual)
			if k > 4 {
				continue
			}
			base, err := (&Algorithm3{}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(seed)))
			for round := 0; round < 3; round++ {
				lns := fmt.Sprintf("lns %s round %d", name, round)
				st := rebuildState(in, set, base, rng)
				noResidue(t, lns+" rebuilt", st.residual)
				run(lns, st, k)
				noResidue(t, lns, st.residual)
			}
			lns := &LNSPlanner{Rounds: 3, Seed: int64(seed)}
			plan, err := lns.Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			noTinyCollection(t, "lns plan "+name, plan)
			done := len(base.Stops) / 2
			run("replan "+name, newPathState(in, set, ResidualState{
				Pos:      base.Stops[done].Pos,
				Budget:   in.Budget() / 2,
				Residual: residualAfter(in, base, done),
				K:        k,
			}), k)
		}
	}
	if reached == 0 {
		t.Fatal("inert test: no stop reached a sensor's drain time")
	}
	t.Logf("%d sensors drained at their drain time", reached)
}

// noResidue fails for every sensor left with a residue below 1e-9 MB:
// less than any take a stop can price, so a leftover of rounding.
func noResidue(t *testing.T, name string, residual []units.Bits) {
	t.Helper()
	for v, r := range residual {
		if r > 0 && r < 1e-9 {
			t.Errorf("%s: sensor %d has a residue of %v MB", name, v, r)
		}
	}
}

// noTinyCollection fails for every collection below 1e-9 MB in p: the
// take of a residue.
func noTinyCollection(t *testing.T, name string, p *Plan) {
	t.Helper()
	for i := range p.Stops {
		for _, c := range p.Stops[i].Collected {
			if c.Amount < 1e-9 {
				t.Errorf("%s: stop %d collects %v MB from sensor %d", name, i, c.Amount, c.Sensor)
			}
		}
	}
}
