package uavdc

import (
	"fmt"

	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/simulate"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// Algorithm selects a planner.
type Algorithm string

const (
	// AlgorithmNoOverlap is the paper's Algorithm 1: reduction to rooted
	// orienteering on the auxiliary energy graph, with pairwise-disjoint
	// hovering coverage.
	AlgorithmNoOverlap Algorithm = "no-overlap"
	// AlgorithmGreedy is Algorithm 2: ρ-ratio greedy insertion with
	// overlapping coverage and full per-stop collection.
	AlgorithmGreedy Algorithm = "greedy"
	// AlgorithmPartial is Algorithm 3: Algorithm 2 over K virtual
	// hovering locations per candidate, allowing partial collection.
	AlgorithmPartial Algorithm = "partial"
	// AlgorithmBaseline is the evaluation benchmark: a TSP tour over all
	// sensors pruned to the energy budget, one sensor per stop.
	AlgorithmBaseline Algorithm = "baseline"
	// AlgorithmLNS runs Algorithm 3 and then improves it with
	// destroy-and-repair large-neighbourhood search — the strongest (and
	// slowest) planner in the library, an extension beyond the paper.
	AlgorithmLNS Algorithm = "lns"
)

// Sensor is one aggregate IoT node: ground position in metres and stored
// data volume in MB.
type Sensor struct {
	X, Y   float64
	DataMB float64
}

// Scenario describes the field the UAV must serve.
type Scenario struct {
	// RegionSideM is the edge of the square monitoring region, metres.
	RegionSideM float64
	// DepotX, DepotY is the UAV's start/return position.
	DepotX, DepotY float64
	// Sensors is the aggregate node set.
	Sensors []Sensor
	// BandwidthMBps is the per-sensor uplink rate B.
	BandwidthMBps float64
	// CoverRadiusM is the hovering coverage radius R0.
	CoverRadiusM float64
}

// RandomScenario draws n sensors uniformly in a side×side region with
// stored volumes uniform in [100, 1000] MB and the paper's default
// bandwidth (150 MB/s) and coverage radius (50 m). The same seed always
// produces the same scenario.
func RandomScenario(n int, side float64, seed uint64) Scenario {
	p := sensornet.DefaultGenParams()
	p.NumSensors = n
	p.Side = side
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		// DefaultGenParams with positive n/side cannot fail; a failure
		// here is a programming error.
		panic(err)
	}
	sc := Scenario{
		RegionSideM:   side,
		DepotX:        net.Depot.X,
		DepotY:        net.Depot.Y,
		BandwidthMBps: net.Bandwidth,
		CoverRadiusM:  net.CommRange,
		Sensors:       make([]Sensor, len(net.Sensors)),
	}
	for i, s := range net.Sensors {
		sc.Sensors[i] = Sensor{X: s.Pos.X, Y: s.Pos.Y, DataMB: s.Data}
	}
	return sc
}

// network converts the scenario to the internal representation.
func (sc Scenario) network() (*sensornet.Network, error) {
	net := &sensornet.Network{
		Region:    geom.Square(sc.RegionSideM),
		Depot:     geom.Pt(sc.DepotX, sc.DepotY),
		Bandwidth: sc.BandwidthMBps,
		CommRange: sc.CoverRadiusM,
		Sensors:   make([]sensornet.Sensor, len(sc.Sensors)),
	}
	for i, s := range sc.Sensors {
		net.Sensors[i] = sensornet.Sensor{Pos: geom.Pt(s.X, s.Y), Data: s.DataMB}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// TotalDataMB returns the sum of all stored volumes.
func (sc Scenario) TotalDataMB() float64 {
	var sum float64
	for _, s := range sc.Sensors {
		sum += s.DataMB
	}
	return sum
}

// UAV is the vehicle's energy model.
type UAV struct {
	// HoverPowerW is η_h in J/s.
	HoverPowerW float64
	// TravelPowerW is η_t in J/s.
	TravelPowerW float64
	// SpeedMS is the cruising speed in m/s.
	SpeedMS float64
	// CapacityJ is the battery capacity E in joules.
	CapacityJ float64
	// ClimbPowerW and ClimbRateMS enable the vertical energy model: each
	// mission pays one ascent to and one descent from AltitudeM at
	// ClimbPowerW watts and ClimbRateMS m/s. Both zero (the default)
	// reproduces the paper's free-altitude abstraction.
	ClimbPowerW float64
	ClimbRateMS float64
}

// DefaultUAV returns the paper's Phantom-4-class model: 150 W hover,
// 100 W travel, 10 m/s, 3×10⁵ J battery.
func DefaultUAV() UAV {
	m := energy.Default()
	return UAV{HoverPowerW: m.HoverPower.F(), TravelPowerW: m.TravelPower.F(), SpeedMS: m.Speed.F(), CapacityJ: m.Capacity.F()}
}

func (u UAV) model() energy.Model {
	return energy.Model{
		HoverPower:  units.Watts(u.HoverPowerW),
		TravelPower: units.Watts(u.TravelPowerW),
		Speed:       units.MetersPerSecond(u.SpeedMS),
		Capacity:    units.Joules(u.CapacityJ),
		ClimbPower:  units.Watts(u.ClimbPowerW),
		ClimbRate:   units.MetersPerSecond(u.ClimbRateMS),
	}
}

// Options tunes the planner.
type Options struct {
	// Algorithm picks the planner; empty means AlgorithmPartial.
	Algorithm Algorithm
	// DeltaM is the grid resolution δ in metres; 0 means CoverRadius/5.
	DeltaM float64
	// K is the sojourn partition for AlgorithmPartial; 0 means 4.
	K int
	// AltitudeM is the hovering altitude H. Zero keeps the paper's
	// ground-level abstraction; a positive value shrinks the effective
	// coverage radius to sqrt(R²−H²) and, with ShannonRadio, lengthens
	// every uplink's slant path.
	AltitudeM float64
	// ShannonRadio replaces the constant-bandwidth uplink with a Shannon-
	// capacity model calibrated so the scenario bandwidth is reached at
	// the hovering altitude (free-space path loss). This removes the
	// paper's "rate differences are negligible" assumption.
	ShannonRadio bool
	// Refine post-optimises the plan by sliding stops off their δ-grid
	// centres (within coverage) and re-ordering — a continuous polish the
	// paper's discretisation forgoes. Never increases energy.
	Refine bool
	// Trace attaches a mission flight recorder (see NewTrace): planner
	// phase spans and the verification simulation's mission event log are
	// appended to it. Recording never changes the plan; nil disables
	// tracing.
	Trace *Trace
}

// radioModel resolves the uplink model the options imply.
func (o Options) radioModel(sc Scenario) radio.Model {
	if !o.ShannonRadio {
		return nil
	}
	ref := o.AltitudeM
	if ref <= 0 {
		ref = 10
	}
	return radio.Shannon{RefRate: units.BitsPerSecond(sc.BandwidthMBps), RefDist: units.Meters(ref), RefSNR: 100, PathLossExp: 2}
}

// Stop is one hovering stop of a planned tour.
type Stop struct {
	X, Y        float64
	SojournS    float64
	CollectedMB float64
}

// Result is a planned (and simulation-verified) mission.
type Result struct {
	Algorithm       string
	Stops           []Stop
	CollectedMB     float64
	EnergyJ         float64
	FlightDistanceM float64
	HoverTimeS      float64
	MissionTimeS    float64

	// plan and net keep the internal representation for rendering.
	plan *core.Plan
	net  *sensornet.Network
}

// plannerFor resolves the Algorithm name to an internal planner.
func plannerFor(opts Options) (core.Planner, error) {
	switch opts.Algorithm {
	case AlgorithmNoOverlap:
		return &core.Algorithm1{}, nil
	case AlgorithmGreedy:
		return &core.Algorithm2{}, nil
	case AlgorithmPartial, "":
		return &core.Algorithm3{}, nil
	case AlgorithmBaseline:
		return &core.BenchmarkPlanner{}, nil
	case AlgorithmLNS:
		return &core.LNSPlanner{Base: &core.Algorithm3{}}, nil
	default:
		return nil, fmt.Errorf("uavdc: unknown algorithm %q", opts.Algorithm)
	}
}

// instance converts the public types into a planning instance.
func (sc Scenario) instance(uav UAV, opts Options) (*core.Instance, error) {
	net, err := sc.network()
	if err != nil {
		return nil, err
	}
	em := uav.model()
	if err := em.Validate(); err != nil {
		return nil, err
	}
	delta := opts.DeltaM
	if delta == 0 {
		delta = sc.CoverRadiusM / 5
	}
	k := opts.K
	if k == 0 {
		k = 4
	}
	return &core.Instance{
		Net:      net,
		Model:    em,
		Delta:    units.Meters(delta),
		K:        k,
		Altitude: units.Meters(opts.AltitudeM),
		Radio:    opts.radioModel(sc),
	}, nil
}

// Plan computes a collection tour for the scenario, verifies it with the
// flight simulator, and returns its summary. It is the single entry point
// a downstream application needs.
func Plan(sc Scenario, uav UAV, opts Options) (*Result, error) {
	planner, err := plannerFor(opts)
	if err != nil {
		return nil, err
	}
	in, err := sc.instance(uav, opts)
	if err != nil {
		return nil, err
	}
	net, em := in.Net, in.Model
	tr := opts.Trace.tracer()
	if tr.Enabled() {
		in.Obs = trace.With(in.Obs, tr)
	}
	plan, err := planner.Plan(in)
	if err != nil {
		return nil, err
	}
	if tr.Enabled() {
		opts.Trace.buf.SetMeta(
			trace.Str("algorithm", plan.Algorithm),
			trace.Num("delta_m", in.Delta.F()),
			trace.Int("k", in.K),
			trace.Int("sensors", len(net.Sensors)))
	}
	if opts.Refine {
		plan = core.RefinePlan(in, plan)
	}
	if err := core.ValidatePlanPhysics(net, em, in.Physics(), plan); err != nil {
		return nil, fmt.Errorf("uavdc: planner produced invalid plan: %w", err)
	}
	sim := simulate.Run(net, em, plan, simulate.Options{Altitude: in.Altitude, Radio: in.Radio, Trace: tr})
	if !sim.Completed {
		return nil, fmt.Errorf("uavdc: simulated mission aborted: %s", sim.AbortReason)
	}
	res := &Result{
		Algorithm:       plan.Algorithm,
		CollectedMB:     sim.Collected,
		EnergyJ:         sim.EnergyUsed,
		FlightDistanceM: sim.FlightDistance,
		HoverTimeS:      sim.HoverTime,
		MissionTimeS:    sim.MissionTime,
		plan:            plan,
		net:             net,
	}
	for i := range plan.Stops {
		st := &plan.Stops[i]
		res.Stops = append(res.Stops, Stop{
			X: st.Pos.X, Y: st.Pos.Y,
			SojournS:    st.Sojourn,
			CollectedMB: st.CollectedTotal(),
		})
	}
	return res, nil
}
