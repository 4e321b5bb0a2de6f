package canon

import (
	"bytes"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
)

// sample returns a small fully-populated instance.
func sample() Instance {
	return Instance{
		MinX: 0, MinY: 0, MaxX: 200, MaxY: 200,
		DepotX: 100, DepotY: 100,
		Sensors: []Sensor{
			{X: 10, Y: 20, Data: 300},
			{X: 150, Y: 40, Data: 512.5},
			{X: 99.25, Y: 180, Data: 101},
		},
		BandwidthMBps: 150, CommRangeM: 50,
		HoverPowerW: 150, TravelPowerW: 100, SpeedMS: 10, CapacityJ: 3e5,
		DeltaM: 10, CoverRadiusM: 50, K: 4, AltitudeM: 0,
		Radio:     Radio{Kind: RadioNone},
		Algorithm: "partial",
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	enc := in.Encode()
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", in, out)
	}
	if !bytes.Equal(enc, out.Encode()) {
		t.Fatal("re-encoding the decoded instance produced different bytes")
	}
}

func TestRoundTripSpecialFloats(t *testing.T) {
	in := sample()
	in.DepotX = math.Copysign(0, -1) // negative zero survives
	in.Sensors[0].Data = math.Inf(1)
	in.AltitudeM = math.NaN() // bit-faithful even for NaN
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(in.Encode(), out.Encode()) {
		t.Fatal("special float bits not preserved")
	}
	if math.Signbit(out.DepotX) != true || !math.IsInf(out.Sensors[0].Data, 1) || !math.IsNaN(out.AltitudeM) {
		t.Fatalf("special floats drifted: %+v", out)
	}
}

func TestDecodeRejects(t *testing.T) {
	enc := sample().Encode()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", enc[:len(enc)/2]},
		{"trailing", append(append([]byte(nil), enc...), 0)},
		{"bad version", append([]byte{9}, enc[1:]...)},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: Decode accepted invalid input", c.name)
		}
	}
}

func TestDecodeRejectsHugeSensorCount(t *testing.T) {
	e := newEncoder()
	e.Str(Version)
	e.F64(0, 0, 1, 1, 0, 0)
	e.I64(1 << 40) // sensor count far beyond the payload
	if _, err := Decode(e.Bytes()); err == nil {
		t.Fatal("Decode accepted an absurd sensor count")
	}
}

func TestBoolEncodingIsCanonical(t *testing.T) {
	enc := sample().Encode()
	// The last byte is the Refine bool; any value other than 0/1 must be
	// rejected, otherwise one instance would have several encodings.
	enc[len(enc)-1] = 2
	if _, err := Decode(enc); err == nil {
		t.Fatal("Decode accepted a non-canonical bool byte")
	}
}

func TestNormalizedResolvesDefaults(t *testing.T) {
	raw := sample()
	raw.Algorithm = ""
	raw.K = 0
	raw.DeltaM = 0
	raw.CoverRadiusM = 0
	n := raw.Normalized()
	if n.Algorithm != DefaultAlgorithm || n.K != DefaultK {
		t.Fatalf("algorithm/K defaults not resolved: %+v", n)
	}
	if n.DeltaM != raw.CommRangeM/5 {
		t.Fatalf("delta default = %v, want %v", n.DeltaM, raw.CommRangeM/5)
	}
	if n.CoverRadiusM != raw.CommRangeM {
		t.Fatalf("cover radius default = %v, want %v", n.CoverRadiusM, raw.CommRangeM)
	}

	// At positive altitude the resolved radius is the hover projection
	// sqrt(R²−H²), bit-identical to hover.CoverageRadius's expression.
	raw.AltitudeM = 30
	n = raw.Normalized()
	want := math.Sqrt(50*50 - 30*30)
	if n.CoverRadiusM != want {
		t.Fatalf("projected cover radius = %v, want %v", n.CoverRadiusM, want)
	}

	// Explicit values are left untouched.
	if got := sample().Normalized(); !reflect.DeepEqual(got, sample()) {
		t.Fatalf("Normalized changed a fully-specified instance: %+v", got)
	}
}

func TestKeyInvariantUnderDefaultElision(t *testing.T) {
	elided := sample()
	elided.Algorithm = ""
	elided.K = 0
	elided.DeltaM = 0
	elided.CoverRadiusM = 0

	explicit := sample()
	explicit.Algorithm = DefaultAlgorithm
	explicit.K = DefaultK
	explicit.DeltaM = explicit.CommRangeM / 5
	explicit.CoverRadiusM = explicit.CommRangeM

	if elided.Key() != explicit.Key() {
		t.Fatal("elided and explicit defaults hash differently")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := sample().Key()
	mutate := map[string]func(*Instance){
		"capacity":     func(in *Instance) { in.CapacityJ++ },
		"sensor data":  func(in *Instance) { in.Sensors[1].Data++ },
		"sensor order": func(in *Instance) { in.Sensors[0], in.Sensors[1] = in.Sensors[1], in.Sensors[0] },
		"algorithm":    func(in *Instance) { in.Algorithm = "greedy" },
		"refine":       func(in *Instance) { in.Refine = true },
		"radio": func(in *Instance) {
			in.Radio = Radio{Kind: RadioShannon, RefRate: 150, RefDist: 10, RefSNR: 100, PathLossExp: 2}
		},
		"k": func(in *Instance) { in.K = 2 },
	}
	for _, name := range slices.Sorted(maps.Keys(mutate)) {
		in := sample()
		in.Sensors = append([]Sensor(nil), sample().Sensors...)
		mutate[name](&in)
		if in.Key() == base {
			t.Errorf("%s: mutation did not change the key", name)
		}
	}
}

// FuzzCanonicalInstance locks the encoding's two contracts: (1) the same
// logical instance — defaults elided or spelled out, built in any
// parameter order — produces the same cache key; (2) Decode(Encode(x))
// reproduces x bit-exactly, and re-encoding reproduces the bytes. An
// encoding with a radio kind no encoder emits (1, the retired
// constant-rate model, or anything past RadioShannon) is not canonical
// and must be rejected.
func FuzzCanonicalInstance(f *testing.F) {
	f.Add(uint8(2), 50.0, 10.0, 0.0, 3e5, int64(4), "partial", false, 300.0, uint8(RadioNone))
	f.Add(uint8(0), 25.0, 0.0, 20.0, 1e4, int64(0), "", true, 0.0, uint8(RadioShannon))
	f.Add(uint8(5), 1.0, 0.5, 0.9, 0.0, int64(-3), "lns", false, 1e308, uint8(RadioNone))
	f.Add(uint8(3), 50.0, 10.0, 0.0, 3e5, int64(4), "partial", false, 300.0, uint8(1))
	f.Fuzz(func(t *testing.T, nSensors uint8, commRange, delta, altitude, capacity float64, k int64, algorithm string, refine bool, data float64, radioKind uint8) {
		if math.IsNaN(commRange) || math.IsNaN(delta) || math.IsNaN(altitude) {
			return // NaN knobs never compare equal; covered by the bit-faithful test above
		}
		in := Instance{
			MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000,
			DepotX: 500, DepotY: 500,
			BandwidthMBps: 150, CommRangeM: commRange,
			HoverPowerW: 150, TravelPowerW: 100, SpeedMS: 10, CapacityJ: capacity,
			DeltaM: delta, K: k, AltitudeM: altitude,
			Radio:     Radio{Kind: RadioKind(radioKind)},
			Algorithm: algorithm, Refine: refine,
		}
		for i := 0; i < int(nSensors)%12; i++ {
			in.Sensors = append(in.Sensors, Sensor{X: float64(i) * 13, Y: float64(i) * 7, Data: data})
		}
		if in.Radio.Kind != RadioNone && in.Radio.Kind != RadioShannon {
			if _, err := Decode(in.Encode()); err == nil {
				t.Fatalf("Decode accepted radio kind %d", in.Radio.Kind)
			}
			return
		}

		// Round trip: bit-exact instance and bytes.
		enc := in.Encode()
		out, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of a fresh encoding failed: %v", err)
		}
		if !bytes.Equal(enc, out.Encode()) {
			t.Fatal("round trip changed the encoding")
		}

		// Key invariance: resolving the defaults by hand produces the
		// same key as leaving the sentinels in place.
		if in.Normalized().Key() != in.Key() {
			t.Fatal("normalization is not idempotent under Key")
		}
		spelled := in.Normalized()
		if spelled.Key() != in.Key() {
			t.Fatal("spelled-out defaults hash differently from elided ones")
		}

		// Decode never panics on mutated input (errors are fine).
		if len(enc) > 0 {
			mut := append([]byte(nil), enc...)
			mut[int(nSensors)%len(mut)] ^= 0x5a
			if dec, err := Decode(mut); err == nil {
				// If a mutation still decodes, it must re-encode to the
				// mutated bytes — one encoding per instance.
				if !bytes.Equal(mut, dec.Encode()) {
					t.Fatal("accepted mutation does not re-encode canonically")
				}
			}
			if _, err := Decode(enc[:len(enc)-1]); err == nil {
				t.Fatal("truncated encoding accepted")
			}
		}
	})
}
