package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1*3+2*(-4) {
		t.Errorf("Dot = %v", got)
	}
}

func TestDistMatchesDist2(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane range to avoid overflow artefacts.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return almostEq(d*d, a.Dist2(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		c := Pt(math.Mod(cx, 1e6), math.Mod(cy, 1e6))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{C: Pt(0, 0), R: 50}
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},
		{Pt(50, 0), true},  // boundary
		{Pt(0, -50), true}, // boundary
		{Pt(35.35, 35.35), true},
		{Pt(50.01, 0), false},
		{Pt(36, 36), false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 20)}
	if !almostEq(r.Width(), 10) || !almostEq(r.Height(), 20) {
		t.Errorf("dims wrong: w=%v h=%v", r.Width(), r.Height())
	}
	if r.Center() != Pt(5, 10) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 20)) || r.Contains(Pt(-0.1, 5)) {
		t.Error("Contains boundary handling wrong")
	}
}

func TestRectClamp(t *testing.T) {
	r := Square(100)
	if got := r.Clamp(Pt(-5, 50)); got != Pt(0, 50) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Pt(200, 300)); got != Pt(100, 100) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestClosestPointOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	if got := ClosestPointOnSegment(Pt(5, 3), a, b); got != Pt(5, 0) {
		t.Errorf("interior projection = %v", got)
	}
	if got := ClosestPointOnSegment(Pt(-4, 2), a, b); got != a {
		t.Errorf("clamp to a = %v", got)
	}
	if got := ClosestPointOnSegment(Pt(99, -1), a, b); got != b {
		t.Errorf("clamp to b = %v", got)
	}
	// Degenerate segment.
	if got := ClosestPointOnSegment(Pt(1, 1), a, a); got != a {
		t.Errorf("degenerate = %v", got)
	}
}
