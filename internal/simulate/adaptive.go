package simulate

import (
	"math"

	"uavdc/internal/core"
	"uavdc/internal/faults"
	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// Instrumentation counter names recorded by the adaptive executor into the
// instance's obs recorder. Totals are exactly reproducible for a fixed
// instance, plan, and fault schedule: the executor and its replan scans
// are serial.
const (
	// CounterReplanTriggered counts mid-flight replans of the remaining
	// tour.
	CounterReplanTriggered = "replan.triggered"
	// CounterFaultsApplied counts fault activations: every leg flown
	// under a wind surcharge, hover under a drain surcharge, upload
	// degraded or blocked, and no-hover zone hit.
	CounterFaultsApplied = "faults.applied"
	// CounterEnergyDeviation accumulates, per executed stop, the absolute
	// deviation between the plan's energy accounting and the actual
	// battery, rounded to whole joules.
	CounterEnergyDeviation = "exec.energy_deviation"
	// CounterStopsSkipped counts planned stops abandoned to preserve the
	// fly-home reserve.
	CounterStopsSkipped = "exec.stops_skipped"
	// HistEnergyDeviation is the per-stop absolute energy-deviation
	// distribution in joules. Deviations are deterministic (no WallSuffix),
	// so the bucket counts share the counters' reproducibility guarantee.
	HistEnergyDeviation = "exec.energy_deviation_hist"
)

// DeviationBuckets are the HistEnergyDeviation boundaries in joules:
// decades from 1 J to 100 kJ (battery capacities are order 10⁵–10⁶ J).
var DeviationBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5}

// DefaultMargin is the replan trigger threshold as a fraction of battery
// capacity: once the actual residual energy deviates from the plan's
// accounting by more than Margin·Capacity, the remaining tour is replanned.
const DefaultMargin = 0.02

// AdaptiveOptions configures an adaptive (fault-aware, replanning) mission
// execution. The embedded Options supply Noise and Trace; Altitude
// and Radio are taken from the planning instance so the executor flies the
// same physics the plan was priced against.
type AdaptiveOptions struct {
	Options
	// Faults is the declared fault schedule; nil executes fault-free.
	Faults *faults.Schedule
	// Margin is the replan trigger threshold as a fraction of battery
	// capacity; 0 or negative selects DefaultMargin.
	Margin float64
}

// AdaptiveResult extends the simulator result with the adaptive executor's
// bookkeeping.
type AdaptiveResult struct {
	Result
	// Replans counts mid-flight replans of the remaining tour.
	Replans int
	// FaultsApplied counts fault activations during execution.
	FaultsApplied int
	// StopsSkipped counts planned stops abandoned to preserve the
	// fly-home reserve.
	StopsSkipped int
	// Diverted is true when the executor flew home early instead of
	// attempting the remaining stops.
	Diverted bool
	// FinalBattery is the battery level back at the depot in J; the
	// reachable-depot invariant guarantees it is never negative under the
	// declared fault schedule and noise bound.
	FinalBattery float64
	// MaxDeviation is the largest absolute deviation observed between the
	// plan's energy accounting and the actual battery, in J.
	MaxDeviation float64
}

// queued is one pending stop with its telemetry index.
type queued struct {
	stop core.Stop
	idx  int
}

// AdaptiveRun executes a plan stop-by-stop under a declared fault schedule,
// replanning the remaining tour whenever the actual battery deviates from
// the plan's accounting by more than the margin, and always reserving the
// worst-case fly-home cost before committing to a leg or hover.
//
// The reachable-depot invariant holds by construction: every committed
// action keeps battery ≥ TravelEnergy(dist-to-depot)·worst-case-factor +
// descent, where the worst case is bounded by the declared schedule
// (Schedule.MaxLegFactor) and the noise model (Noise.MaxFactor). A mission
// that cannot afford its next stop under that pessimistic pricing diverts
// home instead of dying mid-field, degrading collected volume gracefully —
// AdaptiveRun never emits EventBatteryDead.
//
// Disturbances compose multiplicatively, in a documented order: every
// flight leg and hover segment costs nominal × noise-factor × fault-factor.
// The noise stream is drawn per executed segment in flight order, so
// replanned legs are perturbed exactly like nominal ones.
//
// With a nil/empty schedule and no noise the deviation stays exactly zero,
// no replan or divert triggers, and the executed telemetry, volumes, and
// energy accounting reproduce Run bit-for-bit on any valid plan.
//
// Counters (CounterReplanTriggered, CounterFaultsApplied,
// CounterEnergyDeviation, CounterStopsSkipped) record into in.Obs, as do
// the replan scans.
func AdaptiveRun(in *core.Instance, plan *core.Plan, opts AdaptiveOptions) AdaptiveResult {
	net, em := in.Net, in.Model
	opts.Altitude = in.Altitude
	opts.Radio = in.Radio
	sched := opts.Faults
	margin := opts.Margin
	if margin <= 0 {
		margin = DefaultMargin
	}
	// The replan cap is generous enough to never bind in practice; it
	// guarantees termination even under adversarial schedules that starve
	// every stop.
	replanCap := 8 + 2*len(plan.Stops)
	rec := obs.OrDiscard(in.Obs)
	cReplan := rec.Counter(CounterReplanTriggered)
	cFaults := rec.Counter(CounterFaultsApplied)
	cDev := rec.Counter(CounterEnergyDeviation)
	cSkipped := rec.Counter(CounterStopsSkipped)
	hDev := rec.Histogram(HistEnergyDeviation, DeviationBuckets)
	tr := trace.OrDiscard(opts.Trace)
	if !tr.Enabled() {
		// Fall back to the tracer riding on the instance recorder, so a
		// trace.With-wrapped in.Obs captures the mission log too.
		tr = trace.Of(rec)
	}
	emit := tr.Enabled()

	res := AdaptiveResult{Result: Result{PerSensor: make([]float64, len(net.Sensors))}}
	countFault := func() {
		res.FaultsApplied++
		cFaults.Inc()
	}
	battery := em.Capacity
	pos := plan.Depot
	var now units.Seconds
	nextFactor := opts.Noise.factors()
	noiseMax := opts.Noise.MaxFactor()
	descend := em.ClimbEnergy(opts.Altitude)
	// wTravel bounds the actual factor of any future leg; reserve(p) is
	// the guaranteed-sufficient cost of going home from p.
	wTravel := sched.MaxLegFactor() * noiseMax
	reserve := func(p geom.Point) units.Joules {
		return units.Scale(em.TravelEnergy(units.Meters(p.Dist(plan.Depot))), wTravel) + descend
	}

	// expected tracks what the plan's own accounting says the battery
	// should be; rebased after takeoff and on every replan. Deviation =
	// expected − battery.
	expected := battery

	log := func(kind EventKind, stop int) {
		if emit {
			tr.Event(MissionEventPrefix+kind.String(),
				trace.Num("t_sim", now.F()),
				trace.Int("stop", stop),
				trace.Num("x", pos.X),
				trace.Num("y", pos.Y),
				trace.Num("energy_j", res.EnergyUsed),
				trace.Num("collected_mb", res.Collected),
				trace.Num("battery_j", battery.F()),
				trace.Num("deviation_j", (expected-battery).F()),
				trace.Int("faults", res.FaultsApplied))
		}
	}

	// Refuse a mission whose fixed vertical overhead alone cannot round-
	// trip: the UAV stays grounded with a full battery rather than taking
	// off into a guaranteed loss.
	if climb := em.ClimbEnergy(opts.Altitude); climb+descend > battery+1e-12 {
		res.AbortReason = "vertical overhead exceeds battery; mission not started"
		res.FinalBattery = battery.F()
		return res
	}

	log(EventTakeoff, -1)
	if climb := em.ClimbEnergy(opts.Altitude); climb > 0 {
		battery -= climb
		res.EnergyUsed += climb.F()
		now += units.TravelTime(opts.Altitude, em.ClimbRate)
	}

	expected = battery

	queue := make([]queued, len(plan.Stops))
	for i := range plan.Stops {
		queue[i] = queued{stop: plan.Stops[i], idx: i}
	}
	nextIdx := len(plan.Stops)
	legIdx := 0
	stopCount := 0
	replans := 0

	for len(queue) > 0 {
		e := queue[0]
		stop := e.stop
		dist := pos.Dist(stop.Pos)
		legFault := sched.LegFactor(legIdx)
		// Reachable-depot guard: commit to this leg only if, after the
		// worst-case draw, the destination's fly-home reserve survives.
		if worst := units.Scale(em.TravelEnergy(units.Meters(dist)), legFault*noiseMax); battery < worst+reserve(stop.Pos) {
			res.Diverted = true
			res.StopsSkipped = len(queue)
			cSkipped.Add(int64(len(queue)))
			log(EventDivert, e.idx)
			break
		}
		if legFault != 1 {
			countFault()
		}
		factor := nextFactor() * legFault
		need := units.Scale(em.TravelEnergy(units.Meters(dist)), factor)
		battery -= need
		res.EnergyUsed += need.F()
		res.FlightDistance += dist
		now += em.TravelTime(units.Meters(dist))
		pos = stop.Pos
		legIdx++
		log(EventArrive, e.idx)

		// Hover, capped so the fly-home reserve survives the segment.
		want := units.Seconds(stop.Sojourn)
		hoverFault := sched.HoverFactor(stopCount)
		if hoverFault != 1 {
			countFault()
		}
		if sched.NoHoverAt(stop.Pos) {
			want = 0
			countFault()
		}
		hoverFactor := nextFactor() * hoverFault
		avail := battery - reserve(pos)
		canAfford := want
		if need := units.Scale(em.HoverEnergy(want), hoverFactor); need > avail {
			canAfford = units.Duration(avail, units.Scale(em.HoverPower, hoverFactor))
			if canAfford < 0 {
				canAfford = 0
			}
		}
		for _, c := range stop.Collected {
			if c.Sensor < 0 || c.Sensor >= len(net.Sensors) {
				continue
			}
			uf := sched.UploadFactor(stopCount, c.Sensor)
			if uf != 1 {
				cFaults.Inc()
			}
			rate := units.Scale(opts.rateFor(net, units.Meters(net.Sensors[c.Sensor].Pos.Dist(stop.Pos))), uf)
			amt := units.Min(units.Bits(c.Amount), units.Transfer(rate, canAfford)).F()
			remain := net.Sensors[c.Sensor].Data - res.PerSensor[c.Sensor]
			amt = math.Min(amt, math.Max(remain, 0))
			res.PerSensor[c.Sensor] += amt
			res.Collected += amt
		}
		used := units.Scale(em.HoverEnergy(canAfford), hoverFactor)
		if used > avail && canAfford < want {
			// Guard against float rounding in the truncation branch: the
			// reserve is inviolable.
			used = avail
		}
		battery -= used
		res.EnergyUsed += used.F()
		res.HoverTime += canAfford.F()
		now += canAfford
		log(EventCollect, e.idx)
		stopCount++
		queue = queue[1:]

		// Compare actual residual energy against the plan's accounting
		// and replan the remaining tour when the deviation exceeds the
		// margin. The two subtractions mirror the battery's own op
		// sequence so the fault-free deviation is exactly zero.
		expected -= em.TravelEnergy(units.Meters(dist))
		expected -= em.HoverEnergy(units.Seconds(stop.Sojourn))
		dev := units.Abs(expected - battery).F()
		if dev > res.MaxDeviation {
			res.MaxDeviation = dev
		}
		cDev.Add(int64(math.Round(dev)))
		hDev.Observe(dev)
		if len(queue) > 0 && dev > units.Scale(em.Capacity, margin).F() && replans < replanCap {
			residual := make([]units.Bits, len(net.Sensors))
			for v := range residual {
				residual[v] = units.Bits(math.Max(net.Sensors[v].Data-res.PerSensor[v], 0))
			}
			budget := battery - descend
			if budget < 0 {
				budget = 0
			}
			state := core.ResidualState{
				Pos:      pos,
				Budget:   budget,
				Residual: residual,
				K:        in.K,
			}
			if !sched.Empty() {
				state.Exclude = sched.NoHoverAt
			}
			if rp, err := core.ReplanResidual(in, state); err == nil {
				replans++
				res.Replans++
				cReplan.Inc()
				log(EventReplan, -1)
				queue = queue[:0]
				for i := range rp.Stops {
					queue = append(queue, queued{stop: rp.Stops[i], idx: nextIdx})
					nextIdx++
				}
				expected = battery
			}
		}
	}

	// Home leg: the maintained reserve guarantees it is affordable under
	// the worst-case draw.
	homeDist := pos.Dist(plan.Depot)
	legFault := sched.LegFactor(legIdx)
	if legFault != 1 {
		countFault()
	}
	factor := nextFactor() * legFault
	need := units.Scale(em.TravelEnergy(units.Meters(homeDist)), factor)
	battery -= need
	res.EnergyUsed += need.F()
	res.FlightDistance += homeDist
	now += em.TravelTime(units.Meters(homeDist))
	pos = plan.Depot
	if descend > 0 {
		battery -= descend
		res.EnergyUsed += descend.F()
		now += units.TravelTime(opts.Altitude, em.ClimbRate)
	}
	log(EventReturn, -1)
	res.Completed = true
	res.MissionTime = now.F()
	res.FinalBattery = battery.F()
	return res
}
