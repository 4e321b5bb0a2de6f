// Package serve is the planning-as-a-service layer: a concurrent daemon
// core that canonicalizes plan requests into content-addressed cache keys
// (uavdc.PlanKey over internal/canon), deduplicates identical in-flight
// requests, serves repeats from a bounded LRU plan cache, and runs misses
// through a worker pool with a bounded queue and explicit backpressure.
//
// The serving contract is bit-identity: a response body is a pure
// function of the canonical instance — the same bytes whether the request
// was planned cold, answered from the cache, or coalesced onto another
// request's flight, at any GOMAXPROCS. Anything request-scoped (cache
// disposition, elapsed time) travels in HTTP headers, never the body.
package serve

import (
	"encoding/json"
	"fmt"

	"uavdc"
	"uavdc/internal/wire"
)

// Schema tags every uavdc-serve/1 request and response body.
const Schema = wire.Serve

// SensorSpec is one sensor in the request field.
type SensorSpec struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	DataMB float64 `json:"data_mb"`
}

// ScenarioSpec mirrors uavdc.Scenario in the wire schema.
type ScenarioSpec struct {
	RegionSideM   float64      `json:"region_side_m"`
	DepotX        float64      `json:"depot_x"`
	DepotY        float64      `json:"depot_y"`
	Sensors       []SensorSpec `json:"sensors"`
	BandwidthMBps float64      `json:"bandwidth_mbps"`
	CoverRadiusM  float64      `json:"cover_radius_m"`
}

// UAVSpec mirrors uavdc.UAV in the wire schema.
type UAVSpec struct {
	HoverPowerW  float64 `json:"hover_power_w"`
	TravelPowerW float64 `json:"travel_power_w"`
	SpeedMS      float64 `json:"speed_ms"`
	CapacityJ    float64 `json:"capacity_j"`
	ClimbPowerW  float64 `json:"climb_power_w,omitempty"`
	ClimbRateMS  float64 `json:"climb_rate_ms,omitempty"`
}

// OptionsSpec mirrors the output-relevant uavdc.Options in the wire
// schema. Trace is intentionally absent: it never changes the plan, so it
// is server policy, not request identity.
type OptionsSpec struct {
	Algorithm    string  `json:"algorithm,omitempty"`
	DeltaM       float64 `json:"delta_m,omitempty"`
	K            int     `json:"k,omitempty"`
	AltitudeM    float64 `json:"altitude_m,omitempty"`
	ShannonRadio bool    `json:"shannon_radio,omitempty"`
	Refine       bool    `json:"refine,omitempty"`
}

// Request is one uavdc-serve/1 plan request.
type Request struct {
	Schema   string       `json:"schema"`
	Scenario ScenarioSpec `json:"scenario"`
	UAV      UAVSpec      `json:"uav"`
	Options  OptionsSpec  `json:"options"`
}

// StopSpec is one hovering stop of a planned tour in the wire schema.
type StopSpec struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	SojournS    float64 `json:"sojourn_s"`
	CollectedMB float64 `json:"collected_mb"`
}

// ResultSpec mirrors uavdc.Result in the wire schema.
type ResultSpec struct {
	Algorithm       string     `json:"algorithm"`
	Stops           []StopSpec `json:"stops"`
	CollectedMB     float64    `json:"collected_mb"`
	EnergyJ         float64    `json:"energy_j"`
	FlightDistanceM float64    `json:"flight_distance_m"`
	HoverTimeS      float64    `json:"hover_time_s"`
	MissionTimeS    float64    `json:"mission_time_s"`
}

// Response is one uavdc-serve/1 plan response. Key is the content address
// of the canonical instance — the cache line the plan lives in.
type Response struct {
	Schema string     `json:"schema"`
	Key    string     `json:"key"`
	Result ResultSpec `json:"result"`
}

// Error codes of the uavdc-serve/1 error body.
const (
	// ErrBadRequest: the body is not a valid uavdc-serve/1 request, or
	// the instance fails validation.
	ErrBadRequest = "bad_request"
	// ErrBackpressure: the worker queue is full; retry later.
	ErrBackpressure = "backpressure"
	// ErrShuttingDown: the server is draining and accepts no new work.
	ErrShuttingDown = "shutting_down"
	// ErrTimeout: the request's deadline expired before its flight
	// landed. The plan keeps computing and fills the cache for retries.
	ErrTimeout = "timeout"
	// ErrPlanFailed: the planner rejected the instance.
	ErrPlanFailed = "plan_failed"
)

// ErrorBody is the uavdc-serve/1 error response.
type ErrorBody struct {
	Schema string      `json:"schema"`
	Error  ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and the human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Scenario converts the wire field to the library type.
func (s ScenarioSpec) Scenario() uavdc.Scenario {
	sc := uavdc.Scenario{
		RegionSideM:   s.RegionSideM,
		DepotX:        s.DepotX,
		DepotY:        s.DepotY,
		BandwidthMBps: s.BandwidthMBps,
		CoverRadiusM:  s.CoverRadiusM,
		Sensors:       make([]uavdc.Sensor, len(s.Sensors)),
	}
	for i, sp := range s.Sensors {
		sc.Sensors[i] = uavdc.Sensor{X: sp.X, Y: sp.Y, DataMB: sp.DataMB}
	}
	return sc
}

// SpecOf converts a library scenario to the wire form.
//
//uavdc:allow deadexport the benchmark module (_perfbench, which the linter does not load) builds its request bodies with it
func SpecOf(sc uavdc.Scenario) ScenarioSpec {
	out := ScenarioSpec{
		RegionSideM:   sc.RegionSideM,
		DepotX:        sc.DepotX,
		DepotY:        sc.DepotY,
		BandwidthMBps: sc.BandwidthMBps,
		CoverRadiusM:  sc.CoverRadiusM,
		Sensors:       make([]SensorSpec, len(sc.Sensors)),
	}
	for i, s := range sc.Sensors {
		out.Sensors[i] = SensorSpec{X: s.X, Y: s.Y, DataMB: s.DataMB}
	}
	return out
}

// UAV converts the wire energy model to the library type.
func (u UAVSpec) UAV() uavdc.UAV {
	return uavdc.UAV{
		HoverPowerW:  u.HoverPowerW,
		TravelPowerW: u.TravelPowerW,
		SpeedMS:      u.SpeedMS,
		CapacityJ:    u.CapacityJ,
		ClimbPowerW:  u.ClimbPowerW,
		ClimbRateMS:  u.ClimbRateMS,
	}
}

// UAVSpecOf converts a library energy model to the wire form.
func UAVSpecOf(u uavdc.UAV) UAVSpec {
	return UAVSpec{
		HoverPowerW:  u.HoverPowerW,
		TravelPowerW: u.TravelPowerW,
		SpeedMS:      u.SpeedMS,
		CapacityJ:    u.CapacityJ,
		ClimbPowerW:  u.ClimbPowerW,
		ClimbRateMS:  u.ClimbRateMS,
	}
}

// Options converts the wire options to the library type.
func (o OptionsSpec) Options() uavdc.Options {
	return uavdc.Options{
		Algorithm:    uavdc.Algorithm(o.Algorithm),
		DeltaM:       o.DeltaM,
		K:            o.K,
		AltitudeM:    o.AltitudeM,
		ShannonRadio: o.ShannonRadio,
		Refine:       o.Refine,
	}
}

// Validate checks the request's schema tag.
func (r Request) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("serve: schema %q, want %q", r.Schema, Schema)
	}
	return nil
}

// Key computes the request's content address via the shared canonical
// encoding. Invalid instances (unknown algorithm, empty field, bad energy
// model) are rejected here, before any queueing.
func (r Request) Key() (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	return uavdc.PlanKey(r.Scenario.Scenario(), r.UAV.UAV(), r.Options.Options())
}

// EncodeResult renders a planned result as the canonical response body:
// compact JSON plus a trailing newline. Byte-for-byte reproducibility of
// this encoding is what the cache and coalescing bit-identity contract
// rests on.
func EncodeResult(key string, res *uavdc.Result) ([]byte, error) {
	out := Response{Schema: Schema, Key: key, Result: ResultSpec{
		Algorithm:       res.Algorithm,
		Stops:           make([]StopSpec, len(res.Stops)),
		CollectedMB:     res.CollectedMB,
		EnergyJ:         res.EnergyJ,
		FlightDistanceM: res.FlightDistanceM,
		HoverTimeS:      res.HoverTimeS,
		MissionTimeS:    res.MissionTimeS,
	}}
	for i, st := range res.Stops {
		out.Result.Stops[i] = StopSpec{X: st.X, Y: st.Y, SojournS: st.SojournS, CollectedMB: st.CollectedMB}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// encodeError renders a canonical error body.
func encodeError(code, message string) []byte {
	b, err := json.Marshal(ErrorBody{Schema: Schema, Error: ErrorDetail{Code: code, Message: message}})
	if err != nil {
		// Marshalling a flat struct of strings cannot fail.
		panic(err)
	}
	return append(b, '\n')
}
