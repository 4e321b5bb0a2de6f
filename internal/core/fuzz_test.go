package core

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// Fuzz-input shape bits for FuzzFastMatchesReference.
const (
	fuzzCoincident  = 1 << iota // odd sensors sit on top of an earlier one
	fuzzZeroVolume              // every third sensor holds no data
	fuzzDepotCorner             // depot at the region's origin corner
	fuzzReplan                  // also replan an open path mid-flight
	fuzzExclude                 // ... with a no-hover disc over its next stop
)

// fuzzInstance builds a small field from the fuzz input: 1–16 sensors on
// a 200 m square, K in 1..4, and a battery of capScale·10 J (0 is the zero
// budget; a few hundred is tight).
func fuzzInstance(seed uint64, rawN, rawK, shape uint8, capScale uint16) *Instance {
	r := rng.New(seed).Rand()
	const side = 200
	net := &sensornet.Network{
		Region:    geom.Square(side),
		Depot:     geom.Pt(side/2, side/2),
		Bandwidth: 150,
		CommRange: 50,
	}
	if shape&fuzzDepotCorner != 0 {
		net.Depot = geom.Pt(0, 0)
	}
	n := int(rawN)%16 + 1
	for i := 0; i < n; i++ {
		s := sensornet.Sensor{Pos: geom.Pt(r.Float64()*side, r.Float64()*side), Data: 100 + 900*r.Float64()}
		if shape&fuzzCoincident != 0 && i%2 == 1 {
			s.Pos = net.Sensors[i/2].Pos
		}
		if shape&fuzzZeroVolume != 0 && i%3 == 2 {
			s.Data = 0
		}
		net.Sensors = append(net.Sensors, s)
	}
	return &Instance{
		Net:   net,
		Model: energy.Default().WithCapacity(units.Joules(10 * float64(capScale))),
		Delta: 20,
		K:     int(rawK)%4 + 1,
	}
}

// FuzzFastMatchesReference is the differential oracle of the greedy
// state's fast path: on small generated fields (coincident and
// zero-volume sensors, K in 1..4, zero to loose budgets) Algorithms 2 and
// 3, LNS repair and the open-path replanner, with and without excluded
// no-hover zones, must produce byte-identical plans on the fast and the
// reference path. The fast path's candidate evaluations plus its skipped
// candidates plus its reused offers must equal the reference path's
// evaluations, it may recompute residual drains no more often, and every
// other counter, pruned_over_budget among them, must agree.
func FuzzFastMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(1), uint8(0), uint16(2000))
	f.Add(uint64(2), uint8(15), uint8(3), uint8(fuzzCoincident|fuzzZeroVolume), uint16(800))
	f.Add(uint64(3), uint8(12), uint8(2), uint8(fuzzReplan|fuzzExclude), uint16(3000))
	f.Add(uint64(4), uint8(7), uint8(0), uint8(fuzzReplan|fuzzDepotCorner), uint16(300))
	f.Add(uint64(5), uint8(15), uint8(3), uint8(fuzzCoincident|fuzzReplan|fuzzExclude), uint16(0))
	f.Add(uint64(6), uint8(10), uint8(1), uint8(fuzzZeroVolume|fuzzDepotCorner), uint16(150))
	f.Add(uint64(7), uint8(15), uint8(3), uint8(fuzzCoincident|fuzzZeroVolume|fuzzReplan|fuzzExclude), uint16(60000))
	f.Fuzz(func(t *testing.T, seed uint64, rawN, rawK, shape uint8, capScale uint16) {
		type run struct {
			name string
			plan func(in *Instance) (*Plan, error)
		}
		runs := []run{
			{"algorithm2", (&Algorithm2{}).Plan},
			{"algorithm3", (&Algorithm3{}).Plan},
			{"lns", (&LNSPlanner{Rounds: 2}).Plan},
		}
		if shape&fuzzReplan != 0 {
			runs = append(runs, run{"replan", func(in *Instance) (*Plan, error) {
				full, err := (&Algorithm3{}).Plan(in)
				if err != nil {
					return nil, err
				}
				done := len(full.Stops) / 2
				state := ResidualState{
					Pos:      in.Net.Depot,
					Budget:   in.Budget() / 2,
					Residual: residualAfter(in, full, done),
					K:        in.K,
				}
				if done > 0 {
					state.Pos = full.Stops[done-1].Pos
				}
				if shape&fuzzExclude != 0 && done < len(full.Stops) {
					zone := full.Stops[done].Pos
					state.Exclude = func(p geom.Point) bool { return p.Dist(zone) < 25 }
				}
				return ReplanResidual(in, state)
			}})
		}
		for _, r := range runs {
			name := r.name
			side := func(reference bool) ([]byte, map[string]int64) {
				reg := obs.NewRegistry()
				in := fuzzInstance(seed, rawN, rawK, shape, capScale)
				in.Obs = reg
				in.Reference = reference
				p, err := r.plan(in)
				if err != nil {
					t.Fatalf("%s reference=%v: %v", name, reference, err)
				}
				b, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				return b, reg.Snapshot().Counters
			}
			refPlan, ref := side(true)
			fastPlan, fast := side(false)
			if string(refPlan) != string(fastPlan) {
				t.Fatalf("%s: plans differ\nreference %s\nfast      %s", name, refPlan, fastPlan)
			}
			if got, want := fast[CounterCandidateEvals]+fast[CounterScanSkippedDrained]+fast[CounterScanReusedOffers], ref[CounterCandidateEvals]; got != want {
				t.Errorf("%s: fast evals %d + skipped %d + reused %d != reference evals %d",
					name, fast[CounterCandidateEvals], fast[CounterScanSkippedDrained], fast[CounterScanReusedOffers], want)
			}
			if ref[CounterScanSkippedDrained] != 0 || ref[CounterScanReusedOffers] != 0 {
				t.Errorf("%s: reference path skipped %d and reused %d", name, ref[CounterScanSkippedDrained], ref[CounterScanReusedOffers])
			}
			if fast[CounterResidualRecomputes] > ref[CounterResidualRecomputes] {
				t.Errorf("%s: fast path recomputed %d residual drains, reference %d",
					name, fast[CounterResidualRecomputes], ref[CounterResidualRecomputes])
			}
			names := slices.Sorted(maps.Keys(ref))
			names = append(names, slices.Sorted(maps.Keys(fast))...)
			for _, c := range names {
				switch c {
				case CounterCandidateEvals, CounterScanSkippedDrained, CounterScanReusedOffers, CounterResidualRecomputes:
					continue
				}
				if fast[c] != ref[c] {
					t.Errorf("%s: counter %s: fast %d, reference %d", name, c, fast[c], ref[c])
				}
			}
		}
	})
}
