package units

import (
	"math"
	"testing"
)

// TestCrossingsMatchRawArithmetic pins every dimension-crossing helper
// to the exact float64 expression its formula writes — the bit-identity
// contract the typed refactor rests on.
func TestCrossingsMatchRawArithmetic(t *testing.T) {
	// Deliberately awkward values: results are inexact, so any
	// reassociation inside a helper would change the bits.
	p, tt, d, v, r, b, e := 150.3, 7.77, 123.45, 9.9, 151.5, 1007.3, 2.9e5
	checks := []struct {
		name      string
		got, want float64
	}{
		{"Energy", Energy(Watts(p), Seconds(tt)).F(), p * tt},
		{"Duration", Duration(Joules(e), Watts(p)).F(), e / p},
		{"TravelTime", TravelTime(Meters(d), MetersPerSecond(v)).F(), d / v},
		{"Transfer", Transfer(BitsPerSecond(r), Seconds(tt)).F(), r * tt},
		{"TransferTime", TransferTime(Bits(b), BitsPerSecond(r)).F(), b / r},
		{"Scale", Scale(Joules(e), 0.37).F(), e * 0.37},
		{"Ratio", Ratio(Joules(b), Joules(e)), b / e},
		{"Hypot", Hypot(Meters(d), Meters(v)).F(), math.Hypot(d, v)},
	}
	for _, c := range checks {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v (bits %x), want %v (bits %x)",
				c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestMinMaxAbsDelegateToMath locks Min's and Abs's NaN and signed-zero
// semantics to the math package's, since the call sites they replaced
// used math.Min and math.Abs.
func TestMinMaxAbsDelegateToMath(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pairs := [][2]float64{
		{1, 2}, {2, 1}, {nan, 1}, {1, nan}, {negZero, 0}, {0, negZero}, {-3.5, -3.5},
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if got, want := Min(Bits(a), Bits(b)).F(), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Min(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
	for _, x := range []float64{1.5, -1.5, 0, negZero, nan, math.Inf(-1)} {
		if got, want := Abs(Joules(x)).F(), math.Abs(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Abs(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestBuiltinMinMaxMatchMath holds the builtin min and max, which Min and
// geom.Rect.Clamp use, to math.Min and math.Max over every ordered pair of
// signed zeros, infinities, NaN and ordinary values. Without a NaN operand
// the results are identical bit for bit. With one, the builtins return a
// NaN, but neither its payload nor the infinity rule is math's:
// math.Min(−Inf, NaN) is −Inf and math.Max(+Inf, NaN) is +Inf. Min's
// callers pass no NaN.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	vals := []float64{math.Inf(-1), -3.5, -1, math.Copysign(0, -1), 0, 1e-300, 1, 2.25, math.MaxFloat64, math.Inf(1), math.NaN()}
	same := func(name string, a, b, got, want float64) {
		t.Helper()
		if math.IsNaN(a) || math.IsNaN(b) {
			if !math.IsNaN(got) {
				t.Errorf("%s(%v, %v) = %v, want NaN", name, a, b, got)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s(%v, %v) = %v (bits %x), want %v (bits %x)", name, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			same("Min", a, b, Min(Meters(a), Meters(b)).F(), math.Min(a, b))
			same("min", a, b, min(a, b), math.Min(a, b))
			same("max", a, b, max(a, b), math.Max(a, b))
		}
	}
	if math.Min(math.Inf(-1), math.NaN()) != math.Inf(-1) || math.Max(math.Inf(1), math.NaN()) != math.Inf(1) {
		t.Error("math.Min/math.Max no longer prefer the infinity to NaN; update Min's doc")
	}
}

// TestFRoundTrips: wrapping and unwrapping is the identity on bits,
// including for the values float64 treats specially.
func TestFRoundTrips(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1.25, -3e5, math.Inf(1), math.NaN()} {
		if got := Joules(x).F(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Joules(%v).F() = %v", x, got)
		}
		if got := BitsPerSecond(x).F(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("BitsPerSecond(%v).F() = %v", x, got)
		}
	}
}
