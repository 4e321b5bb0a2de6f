package canon

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Decode parses an Encode output back into the instance it came from,
// bit-exactly. It rejects short input, version mismatches, and trailing
// bytes — there is exactly one encoding per instance.
func Decode(data []byte) (Instance, error) {
	d := &Decoder{buf: data}
	var in Instance
	if v := d.Str(); d.err == nil && v != Version {
		return Instance{}, fmt.Errorf("canon: version %q, want %q", v, Version)
	}
	in.MinX, in.MinY, in.MaxX, in.MaxY = d.F64(), d.F64(), d.F64(), d.F64()
	in.DepotX, in.DepotY = d.F64(), d.F64()
	n := d.I64()
	if d.err == nil {
		if n < 0 || n > int64(len(d.buf)-d.off)/24 {
			return Instance{}, fmt.Errorf("canon: sensor count %d exceeds payload", n)
		}
		in.Sensors = make([]Sensor, n)
		for i := range in.Sensors {
			in.Sensors[i] = Sensor{X: d.F64(), Y: d.F64(), Data: d.F64()}
		}
	}
	in.BandwidthMBps, in.CommRangeM = d.F64(), d.F64()
	in.HoverPowerW, in.TravelPowerW = d.F64(), d.F64()
	in.SpeedMS, in.CapacityJ = d.F64(), d.F64()
	in.ClimbPowerW, in.ClimbRateMS = d.F64(), d.F64()
	in.DeltaM, in.CoverRadiusM = d.F64(), d.F64()
	in.K = d.I64()
	in.AltitudeM = d.F64()
	in.Radio.Kind = RadioKind(d.Byte())
	in.Radio.RefRate, in.Radio.RefDist = d.F64(), d.F64()
	in.Radio.RefSNR, in.Radio.PathLossExp = d.F64(), d.F64()
	in.Algorithm = d.Str()
	in.Refine = d.Bool()
	if d.err != nil {
		return Instance{}, d.err
	}
	if d.off != len(d.buf) {
		return Instance{}, fmt.Errorf("canon: %d trailing bytes after instance", len(d.buf)-d.off)
	}
	if in.Radio.Kind != RadioNone && in.Radio.Kind != RadioShannon {
		return Instance{}, fmt.Errorf("canon: unknown radio kind %d", in.Radio.Kind)
	}
	return in, nil
}

// Decoder is the strict canonical byte reader; the first error sticks and
// subsequent reads return zero values.
type Decoder struct {
	buf []byte
	off int
	err error
}

// take returns the next n bytes or flags truncation.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("canon: truncated input at offset %d (need %d of %d bytes)", d.off, n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// F64 reads one float's bit pattern.
func (d *Decoder) F64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// I64 reads one 8-byte integer.
func (d *Decoder) I64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and requires it to be exactly 0 or 1 — any other
// value would admit two encodings of the same instance.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err == nil && b > 1 {
		d.err = fmt.Errorf("canon: invalid bool byte %d", b)
	}
	return b == 1
}

// Str reads one length-prefixed string.
func (d *Decoder) Str() string {
	n := d.I64()
	if d.err != nil {
		return ""
	}
	if n < 0 || n > int64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("canon: string length %d exceeds payload", n)
		return ""
	}
	return string(d.take(int(n)))
}
