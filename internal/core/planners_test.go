package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// mediumInstance builds a reduced-scale version of the paper's setting:
// same densities and data distribution, smaller region so tests stay fast.
func mediumInstance(t testing.TB, seed uint64, capacity units.Joules) *Instance {
	t.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = 60
	p.Side = 350
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		Net:   net,
		Model: energy.Default().WithCapacity(capacity),
		Delta: 25,
		K:     2,
	}
}

func allPlanners() []Planner {
	return []Planner{
		&Algorithm1{},
		&Algorithm2{},
		&Algorithm3{},
		&BenchmarkPlanner{},
	}
}

func TestInstanceValidate(t *testing.T) {
	in := mediumInstance(t, 1, 1e5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Instance){
		"nil net":        func(i *Instance) { i.Net = nil },
		"bad delta":      func(i *Instance) { i.Delta = 0 },
		"bad radius":     func(i *Instance) { i.CoverRadius = -1 },
		"negative K":     func(i *Instance) { i.K = -1 },
		"bad model":      func(i *Instance) { i.Model = energy.Model{} },
		"bad capacity":   func(i *Instance) { i.Model.Capacity = units.Joules(math.Inf(1)) },
		"broken network": func(i *Instance) { i.Net.Bandwidth = 0 },
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		in := mediumInstance(t, 1, 1e5)
		cases[name](in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if r := mediumInstance(t, 1, 1e5).EffectiveCoverRadius(); r != 50 {
		t.Errorf("EffectiveCoverRadius = %v, want CommRange 50", r)
	}
	in = mediumInstance(t, 1, 1e5)
	in.CoverRadius = 30
	if in.EffectiveCoverRadius() != 30 {
		t.Error("explicit cover radius ignored")
	}
}

// TestAllPlannersProduceValidPlans is the central cross-planner invariant:
// every planner, on every instance, yields a plan that passes the
// independent validator.
func TestAllPlannersProduceValidPlans(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, capacity := range []units.Joules{3e4, 1e5, 3e5} {
			in := mediumInstance(t, seed, capacity)
			for _, pl := range allPlanners() {
				plan, err := pl.Plan(in)
				if err != nil {
					t.Fatalf("%s seed=%d E=%g: %v", pl.Name(), seed, capacity, err)
				}
				if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), plan); err != nil {
					t.Errorf("%s seed=%d E=%g: invalid plan: %v", pl.Name(), seed, capacity, err)
				}
				if plan.Algorithm != pl.Name() {
					t.Errorf("%s: plan labelled %q", pl.Name(), plan.Algorithm)
				}
			}
		}
	}
}

func TestPlannersCollectMoreWithMoreEnergy(t *testing.T) {
	// Monotone trend (Figs. 3a, 5a): growing E must not shrink collection.
	// Greedy heuristics are not theoretically monotone; allow 2% slack.
	for _, pl := range allPlanners() {
		prev := -1.0
		for _, capacity := range []units.Joules{5e4, 1.5e5, 4e5} {
			in := mediumInstance(t, 7, capacity)
			plan, err := pl.Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Collected()
			if got < prev*0.98 {
				t.Errorf("%s: collection dropped from %v to %v when E grew", pl.Name(), prev, got)
			}
			if got > prev {
				prev = got
			}
		}
	}
}

func TestFrameworkBeatsBenchmark(t *testing.T) {
	// The headline claim (Fig. 3a, 4a): under a tight budget the
	// coverage-based planners collect a multiple of what the
	// one-sensor-per-stop benchmark manages (the paper reports ≈2× at
	// paper scale; at this reduced scale the gap is even wider).
	in := mediumInstance(t, 11, 2e4)
	bench, err := (&BenchmarkPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}} {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Collected() < 1.5*bench.Collected() {
			t.Errorf("%s collected %v, want ≥ 1.5× benchmark %v", pl.Name(), plan.Collected(), bench.Collected())
		}
	}
}

func TestAlgorithm3AtLeastAlgorithm2(t *testing.T) {
	// Fig. 4a: Algorithm 3 (K ≥ 2) should dominate Algorithm 2, because
	// partial stops strictly enlarge its move set. Greedy selection can
	// occasionally invert this; require K=4 ≥ 0.97 × Algorithm 2 across
	// seeds and strict dominance on average.
	var sum2, sum3 float64
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		in := mediumInstance(t, seed, 1e5)
		p2, err := (&Algorithm2{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		in.K = 4
		p3, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		sum2 += p2.Collected()
		sum3 += p3.Collected()
		if p3.Collected() < 0.97*p2.Collected() {
			t.Errorf("seed %d: algorithm3 %v far below algorithm2 %v", seed, p3.Collected(), p2.Collected())
		}
	}
	if sum3 < sum2 {
		t.Errorf("algorithm3 mean %v below algorithm2 mean %v", sum3/5, sum2/5)
	}
}

func TestAlgorithm3K1MatchesAlgorithm2(t *testing.T) {
	// With K = 1 the virtual ladder collapses to full drains, and the
	// planner must collect what Algorithm 2 does, up to rounding: its
	// level takes rate·t′ from a sensor, Algorithm 2 the residual itself.
	for _, seed := range []uint64{3, 9} {
		in := mediumInstance(t, seed, 1.2e5)
		in.K = 1
		p2, err := (&Algorithm2{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		p3, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p2.Collected()-p3.Collected()) > 1e-6 {
			t.Errorf("seed %d: K=1 algorithm3 %v != algorithm2 %v", seed, p3.Collected(), p2.Collected())
		}
	}
}

func TestZeroCapacityYieldsEmptyPlans(t *testing.T) {
	in := mediumInstance(t, 5, 0)
	for _, pl := range allPlanners() {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(plan.Stops) != 0 {
			t.Errorf("%s: zero capacity produced %d stops", pl.Name(), len(plan.Stops))
		}
	}
}

func TestHugeCapacityCollectsEverything(t *testing.T) {
	in := mediumInstance(t, 6, 1e9)
	total := in.Net.TotalData()
	for _, pl := range allPlanners() {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		got := plan.Collected()
		if pl.Name() == "algorithm1" {
			// The disjoint-coverage restriction may make some sensors
			// unreachable; everything reachable must still be collected.
			if got < 0.8*total {
				t.Errorf("algorithm1 with huge budget collected %v of %v", got, total)
			}
			continue
		}
		if math.Abs(got-total) > 1e-6*total {
			t.Errorf("%s with huge budget collected %v, want all %v", pl.Name(), got, total)
		}
	}
}

func TestEmptyNetwork(t *testing.T) {
	in := mediumInstance(t, 8, 1e5)
	in.Net.Sensors = nil
	in.Net.InvalidateIndex()
	for _, pl := range allPlanners() {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(plan.Stops) != 0 || plan.Collected() != 0 {
			t.Errorf("%s: nonempty plan on empty network", pl.Name())
		}
	}
}

func TestSingleSensorNetwork(t *testing.T) {
	in := mediumInstance(t, 9, 3e5)
	in.Net.Sensors = in.Net.Sensors[:1]
	in.Net.InvalidateIndex()
	want := in.Net.Sensors[0].Data
	for _, pl := range allPlanners() {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if math.Abs(plan.Collected()-want) > 1e-9 {
			t.Errorf("%s: collected %v, want %v", pl.Name(), plan.Collected(), want)
		}
		if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), plan); err != nil {
			t.Error(err)
		}
	}
}

func TestAlgorithm1DisjointCoverage(t *testing.T) {
	// With the default no-overlap enforcement, no sensor may appear in two
	// stops' coverage claims — structurally guaranteed, verify anyway.
	in := mediumInstance(t, 10, 2e5)
	plan, err := (&Algorithm1{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, s := range plan.Stops {
		for _, c := range s.Collected {
			if seen[c.Sensor] {
				t.Fatalf("sensor %d collected at two stops", c.Sensor)
			}
			seen[c.Sensor] = true
			if c.Amount != in.Net.Sensors[c.Sensor].Data {
				t.Errorf("algorithm1 must fully collect: sensor %d got %v", c.Sensor, c.Amount)
			}
		}
	}
}

func TestAlgorithm2ExactRatioTSPAgreesRoughly(t *testing.T) {
	// The ablation knob: literal Eq. 13 pricing should produce a valid
	// plan within a few percent of the incremental pricing.
	in := mediumInstance(t, 13, 6e4)
	in.Delta = 40
	fast, err := (&Algorithm2{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := (&Algorithm2{ExactRatioTSP: true}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), exact); err != nil {
		t.Fatal(err)
	}
	lo, hi := fast.Collected(), exact.Collected()
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0.7*hi {
		t.Errorf("pricing modes disagree badly: fast %v vs exact %v", fast.Collected(), exact.Collected())
	}
}

func TestBenchmarkPrunesToBudget(t *testing.T) {
	in := mediumInstance(t, 14, 4e4)
	plan, err := (&BenchmarkPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Energy(in.Model); got > in.Model.Capacity.F()+1e-6 {
		t.Errorf("benchmark plan energy %v exceeds capacity %v", got, in.Model.Capacity)
	}
	// Each benchmark stop collects exactly its own sensor.
	for _, s := range plan.Stops {
		if len(s.Collected) != 1 {
			t.Fatalf("benchmark stop collects %d sensors", len(s.Collected))
		}
		v := s.Collected[0].Sensor
		if in.Net.Sensors[v].Pos != s.Pos {
			t.Error("benchmark stop not above its sensor")
		}
	}
}

func TestPlannersDeterministic(t *testing.T) {
	for _, pl := range allPlanners() {
		in1 := mediumInstance(t, 21, 1e5)
		in2 := mediumInstance(t, 21, 1e5)
		a, err := pl.Plan(in1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pl.Plan(in2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Collected() != b.Collected() || len(a.Stops) != len(b.Stops) {
			t.Errorf("%s not deterministic: %v/%d vs %v/%d", pl.Name(), a.Collected(), len(a.Stops), b.Collected(), len(b.Stops))
		}
	}
}
