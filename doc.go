// Package uavdc plans data-collection tours for an energy-constrained UAV
// over a field of IoT sensor nodes, reproducing "Data Collection of IoT
// Devices Using an Energy-Constrained UAV" (Li, Liang, Xu, Jia — IPDPS
// Workshops 2020).
//
// The UAV starts at a depot with a battery of E joules, flies between
// hovering locations (grid-square centres at resolution δ), and while
// hovering collects data simultaneously from every sensor within coverage
// radius R0, each uploading at bandwidth B. The goal is a closed tour
// maximising the collected volume subject to the energy budget, where
// hovering costs η_h J/s and flying costs η_t J/s at constant speed.
//
// This package is the high-level facade: build a Scenario, pick a UAV and
// an Algorithm, call Plan. The full machinery — candidate generation,
// the orienteering reduction, Christofides tours, blossom matching, the
// flight simulator and the figure-regeneration harness — lives in the
// internal packages and is exercised through the cmd/ tools and examples/.
//
//	sc := uavdc.RandomScenario(500, 1000, 42)
//	res, err := uavdc.Plan(sc, uavdc.DefaultUAV(), uavdc.Options{
//		Algorithm: uavdc.AlgorithmPartial,
//		DeltaM:    10,
//		K:         4,
//	})
//
// Algorithms: AlgorithmNoOverlap is the paper's Algorithm 1 (orienteering
// reduction, disjoint coverage); AlgorithmGreedy is Algorithm 2 (ρ-ratio
// greedy with overlapping coverage); AlgorithmPartial is Algorithm 3
// (partial collection with K sojourn levels); AlgorithmBaseline is the
// evaluation benchmark (TSP over all sensors, pruned to budget);
// AlgorithmLNS layers destroy-and-repair search over Algorithm 3.
//
// Beyond single tours, PlanFleet splits the field among several UAVs,
// PlanCampaign flies repeated sorties until the field drains, and Options
// toggles the extensions: hovering altitude and Shannon distance-dependent
// uplink (AltitudeM, ShannonRadio) and continuous stop refinement
// (Refine).
package uavdc
