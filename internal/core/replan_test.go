package core

import (
	"math"
	"slices"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/units"
)

// residualAfter subtracts a prefix's collections from the full volumes.
func residualAfter(in *Instance, p *Plan, executed int) []units.Bits {
	res := make([]units.Bits, len(in.Net.Sensors))
	for v := range res {
		res[v] = units.Bits(in.Net.Sensors[v].Data)
	}
	for i := 0; i < executed && i < len(p.Stops); i++ {
		for _, c := range p.Stops[i].Collected {
			res[c.Sensor] -= units.Bits(c.Amount)
			if res[c.Sensor] < 0 {
				res[c.Sensor] = 0
			}
		}
	}
	return res
}

func TestReplanResidualRespectsBudgetAndEndsAtDepot(t *testing.T) {
	in := mediumInstance(t, 3, 2e4)
	full, err := (&Algorithm3{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Stops) < 3 {
		t.Fatalf("need a multi-stop plan, got %d stops", len(full.Stops))
	}
	// Pretend the mission executed two stops and is now at the second one
	// with half the battery left.
	pos := full.Stops[1].Pos
	budget := in.Model.Capacity / 2
	state := ResidualState{
		Pos:      pos,
		Budget:   budget,
		Residual: residualAfter(in, full, 2),
		K:        in.K,
	}
	rp, err := ReplanResidual(in, state)
	if err != nil {
		t.Fatal(err)
	}
	// The open path's nominal energy must fit the residual budget.
	if got := rp.PathEnergy(in.Model, pos); got > budget+1e-6 {
		t.Errorf("replanned path needs %.3f J, budget %.3f J", got.F(), budget.F())
	}
	// Collections only from residual volumes.
	per := rp.CollectedBySensor(len(in.Net.Sensors))
	for v, amt := range per {
		if units.Bits(amt) > state.Residual[v]+1e-9 {
			t.Errorf("sensor %d: replanned %v MB, residual %v MB", v, amt, state.Residual[v])
		}
	}
	if rp.Collected() <= 0 {
		t.Error("replanning with half the battery collected nothing")
	}
	for si := range rp.Stops {
		if rp.Stops[si].Sojourn < 0 {
			t.Errorf("stop %d negative sojourn", si)
		}
	}
}

func TestReplanResidualZeroBudget(t *testing.T) {
	in := mediumInstance(t, 1, 1e4)
	state := ResidualState{
		Pos:      in.Net.Depot,
		Budget:   0,
		Residual: residualAfter(in, &Plan{}, 0),
		K:        2,
	}
	rp, err := ReplanResidual(in, state)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Stops) != 0 {
		t.Errorf("zero budget planned %d stops", len(rp.Stops))
	}
}

func TestReplanResidualExcludePredicate(t *testing.T) {
	in := mediumInstance(t, 5, 3e4)
	residual := residualAfter(in, &Plan{}, 0)
	state := ResidualState{Pos: in.Net.Depot, Budget: in.Budget(), Residual: residual, K: 1}
	unconstrained, err := ReplanResidual(in, state)
	if err != nil {
		t.Fatal(err)
	}
	if len(unconstrained.Stops) == 0 {
		t.Fatal("unconstrained replan planned nothing")
	}
	// Forbid the first chosen stop's position: it must disappear.
	banned := unconstrained.Stops[0].Pos
	state.Exclude = func(p geom.Point) bool { return p.Dist(banned) < 1e-9 }
	constrained, err := ReplanResidual(in, state)
	if err != nil {
		t.Fatal(err)
	}
	for si := range constrained.Stops {
		if constrained.Stops[si].Pos.Dist(banned) < 1e-9 {
			t.Fatalf("excluded position still planned at stop %d", si)
		}
	}
}

// TestReplanSkipsDrainedResidue hands the replanner what an executor
// that subtracts its collections leaves of a drained sensor: a residue of
// at most 1e-12 of the sensor's data, here on every odd sensor, the even
// ones keeping their data. Such a sensor is drained, so the replanner
// plans no collection from it.
func TestReplanSkipsDrainedResidue(t *testing.T) {
	in := mediumInstance(t, 3, 2e4)
	n := len(in.Net.Sensors)
	residual := make([]units.Bits, n)
	for v := range residual {
		residual[v] = units.Bits(in.Net.Sensors[v].Data)
		if v%2 == 1 {
			residual[v] *= 1e-13
		}
	}
	for _, k := range []int{1, 4} {
		rp, err := ReplanResidual(in, ResidualState{Pos: in.Net.Depot, Budget: in.Budget(), Residual: residual, K: k})
		if err != nil {
			t.Fatal(err)
		}
		for v, amt := range rp.CollectedBySensor(n) {
			if v%2 == 1 && amt > 0 {
				t.Errorf("K %d: collects %g MB from drained sensor %d", k, amt, v)
			}
		}
	}
}

func TestReplanResidualValidatesInput(t *testing.T) {
	in := mediumInstance(t, 1, 1e4)
	if _, err := ReplanResidual(in, ResidualState{Pos: in.Net.Depot, Budget: 1, Residual: []units.Bits{1}}); err == nil {
		t.Error("accepted residual of wrong length")
	}
	bad := residualAfter(in, &Plan{}, 0)
	bad[0] = units.Bits(math.NaN())
	if _, err := ReplanResidual(in, ResidualState{Pos: in.Net.Depot, Budget: 1, Residual: bad}); err == nil {
		t.Error("accepted NaN residual")
	}
	good := residualAfter(in, &Plan{}, 0)
	if _, err := ReplanResidual(in, ResidualState{Pos: in.Net.Depot, Budget: units.Joules(math.Inf(1)), Residual: good}); err == nil {
		t.Error("accepted infinite budget")
	}
}

// TestReplanResidualDeterministicAcrossWorkers: the replan scan reuses the
// planners' sharded total-order machinery, so plans and counter totals
// must be identical at any worker count.
// TestOpenPathImproveKeepsLength: a 2-opt reorder of a crossing interior
// order shortens the path, and the incrementally kept length still equals
// the sum of the consecutive node distances.
func TestOpenPathImproveKeepsLength(t *testing.T) {
	// Stops along y = 40 visited right to left between a start and an end
	// on the x axis: the legs cross, so reversing the interior pays.
	set := pointSet([]geom.Point{geom.Pt(20, 40), geom.Pt(45, 45), geom.Pt(70, 35), geom.Pt(95, 40)})
	p := &openPath{start: geom.Pt(0, 0), end: geom.Pt(120, 0), order: []int{3, 1, 2, 0}}
	sum := func() float64 {
		var l float64
		for i := 0; i <= len(p.order); i++ {
			l += p.node(set, i).Dist(p.node(set, i+1))
		}
		return l
	}
	p.length = sum()
	before, order := p.length, slices.Clone(p.order)
	p.improve(set)
	if slices.Equal(p.order, order) {
		t.Fatalf("improve kept the crossing order %v", order)
	}
	if !(p.length < before) {
		t.Fatalf("length %v after improve, was %v", p.length, before)
	}
	if want := sum(); math.Abs(p.length-want) > 1e-9*want {
		t.Fatalf("kept length %v, consecutive distances sum to %v (order %v)", p.length, want, p.order)
	}
}

// PathEnergy returns the nominal energy of executing plan's stops as an
// open path from `from` to the plan's depot: travel along
// from → stops → depot plus every hover. It is the accounting AdaptiveRun
// rebases its deviation margin against after a replan.
func (p *Plan) PathEnergy(em energy.Model, from geom.Point) units.Joules {
	var e units.Joules
	pos := from
	for i := range p.Stops {
		e += em.TravelEnergy(units.Meters(pos.Dist(p.Stops[i].Pos))) + em.HoverEnergy(units.Seconds(p.Stops[i].Sojourn))
		pos = p.Stops[i].Pos
	}
	return e + em.TravelEnergy(units.Meters(pos.Dist(p.Depot)))
}
