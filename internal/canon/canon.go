// Package canon is the repo's canonical instance representation: one
// deterministic, content-addressable encoding of "what is being planned" —
// the field, the UAV energy model, the discretisation and physics knobs,
// and the planner selection. Every layer that needs an identity for a
// planning request builds it here: core hashes single-UAV instances
// (Instance.Canonical), multi extends the key with fleet knobs, mission
// with campaign knobs, simulate with the adaptive executor's schedule, and
// internal/serve uses the hash as its plan-cache key.
//
// Design rules:
//
//   - The encoding is total and bit-faithful: floats are serialised as
//     their IEEE-754 bit patterns, so Decode(Encode(x)) reproduces x
//     exactly (including negative zeros and NaN payloads) and two
//     instances hash equal iff every bit of every field agrees.
//   - Key hashes the *normalized* instance: unset knobs (Algorithm "",
//     K 0, Delta 0, CoverRadius 0) are resolved to the library-wide
//     defaults first, so a request that spells the defaults out and one
//     that omits them address the same cache line. Normalization mirrors
//     the resolution rules of the uavdc facade bit for bit.
//   - Fields that provably do not change planner output — worker counts,
//     tracing, instrumentation — are not part of the representation. The
//     repo's determinism rails (fast-path parity, worker invariance,
//     tracing on/off parity) are what make this sound.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"uavdc/internal/wire"
)

// Version tags the encoding. Bump it when a field is added, removed, or
// reordered; keys from different versions never collide because the tag is
// hashed with the payload.
const Version = wire.Canon

// DefaultAlgorithm is the planner selected by an empty algorithm name,
// mirroring the uavdc facade (Algorithm 3, partial collection).
const DefaultAlgorithm = "partial"

// DefaultK is the sojourn partition selected by K ≤ 0, mirroring the
// facade.
const DefaultK = 4

// Sensor is one aggregate node of the canonical field: ground position in
// metres and stored volume in MB.
type Sensor struct {
	X, Y, Data float64
}

// RadioKind enumerates the uplink models the encoding understands.
type RadioKind uint8

const (
	// RadioNone is the paper's constant network bandwidth (no explicit
	// radio model attached to the instance).
	RadioNone RadioKind = 0
	// RadioShannon is the Shannon-capacity model over free-space path
	// loss. Its value is fixed by the uavdc-canon/1 encoding; 1 is unused.
	RadioShannon RadioKind = 2
)

// Radio is the canonical uplink model. For RadioNone no field is
// meaningful.
type Radio struct {
	Kind RadioKind
	// RefRate, RefDist, RefSNR, PathLossExp are the Shannon calibration
	// parameters.
	RefRate, RefDist, RefSNR, PathLossExp float64
}

// Instance is the canonical planning instance: everything that determines
// a planner's output, in plain float64 (the encoding is a typed-world
// boundary, like core.Plan's accessors).
type Instance struct {
	// Field geometry: the monitoring region's corners and the depot.
	MinX, MinY, MaxX, MaxY float64
	DepotX, DepotY         float64
	// Sensors is the aggregate node set, in network order. Order is
	// semantic — planners iterate and tie-break by index — so the
	// encoding must not sort it.
	Sensors []Sensor
	// BandwidthMBps and CommRangeM are the network's B and R.
	BandwidthMBps, CommRangeM float64
	// Energy model: η_h, η_t, v, E, and the vertical extension.
	HoverPowerW, TravelPowerW, SpeedMS, CapacityJ float64
	ClimbPowerW, ClimbRateMS                      float64
	// Discretisation and physics knobs.
	DeltaM       float64
	CoverRadiusM float64
	K            int64
	AltitudeM    float64
	Radio        Radio
	// Planner selection.
	Algorithm string
	Refine    bool
}

// Normalized resolves every unset-sentinel knob to the library default —
// the same resolution the uavdc facade applies before planning — so that
// logically identical instances encode identically:
//
//   - Algorithm ""  → DefaultAlgorithm
//   - K ≤ 0         → DefaultK
//   - DeltaM ≤ 0    → CommRangeM/5
//   - CoverRadiusM ≤ 0 → sqrt(R²−H²) at positive altitude, else R
//     (bit-identical to hover.CoverageRadius)
//   - ClimbPowerW, ClimbRateMS, AltitudeM = −0 → +0 (zero is their
//     unset value, which the serve wire schema omits, so a request
//     spelling −0 and its re-encoding must hash alike)
func (in Instance) Normalized() Instance {
	out := in
	// x + 0 is x for every x but −0, which it maps to +0.
	out.ClimbPowerW += 0
	out.ClimbRateMS += 0
	out.AltitudeM += 0
	if out.Algorithm == "" {
		out.Algorithm = DefaultAlgorithm
	}
	if out.K <= 0 {
		out.K = DefaultK
	}
	if out.DeltaM <= 0 {
		out.DeltaM = out.CommRangeM / 5
	}
	if out.CoverRadiusM <= 0 {
		if out.AltitudeM > 0 && out.AltitudeM <= out.CommRangeM {
			// The exact expression of hover.CoverageRadius, so the
			// sentinel and its resolution hash identically.
			out.CoverRadiusM = math.Sqrt(out.CommRangeM*out.CommRangeM - out.AltitudeM*out.AltitudeM)
		} else {
			out.CoverRadiusM = out.CommRangeM
		}
	}
	return out
}

// Encode serialises the instance (as given — call Normalized first when
// default-elision must not matter). The output is a pure function of the
// field values: fixed field order, IEEE-754 bit patterns for floats,
// length-prefixed strings and slices.
func (in Instance) Encode() []byte {
	e := newEncoder()
	e.Str(Version)
	e.F64(in.MinX, in.MinY, in.MaxX, in.MaxY)
	e.F64(in.DepotX, in.DepotY)
	e.I64(int64(len(in.Sensors)))
	for _, s := range in.Sensors {
		e.F64(s.X, s.Y, s.Data)
	}
	e.F64(in.BandwidthMBps, in.CommRangeM)
	e.F64(in.HoverPowerW, in.TravelPowerW, in.SpeedMS, in.CapacityJ, in.ClimbPowerW, in.ClimbRateMS)
	e.F64(in.DeltaM, in.CoverRadiusM)
	e.I64(in.K)
	e.F64(in.AltitudeM)
	e.Byte(byte(in.Radio.Kind))
	e.F64(in.Radio.RefRate, in.Radio.RefDist, in.Radio.RefSNR, in.Radio.PathLossExp)
	e.Str(in.Algorithm)
	e.Bool(in.Refine)
	return e.Bytes()
}

// Key is a content address: the SHA-256 of the normalized encoding.
type Key [sha256.Size]byte

// String renders the key as lowercase hex — the form the serve cache, the
// uavdc-serve/1 responses, and the extended multi/mission/simulate keys
// use.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Key content-addresses the instance: SHA-256 over Normalized().Encode().
func (in Instance) Key() Key {
	return sha256.Sum256(in.Normalized().Encode())
}

// encoder is the canonical byte writer: fixed-width little-endian IEEE
// bits for floats, fixed-width two's-complement for ints, length-prefixed
// strings.
type encoder struct {
	buf []byte
}

// newEncoder returns an empty encoder.
func newEncoder() *encoder { return &encoder{} }

// F64 appends each float's IEEE-754 bit pattern.
func (e *encoder) F64(vs ...float64) {
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
}

// I64 appends each integer as 8 little-endian bytes.
func (e *encoder) I64(vs ...int64) {
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

// Byte appends one raw byte.
func (e *encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends 1 or 0.
func (e *encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Str appends a length-prefixed string.
func (e *encoder) Str(s string) {
	e.I64(int64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the accumulated encoding.
func (e *encoder) Bytes() []byte { return e.buf }
