// Package geom provides the planar geometry primitives used throughout the
// uavdc library: points, distances, circles, axis-aligned rectangles, the
// δ-square grid partition of the monitoring region, and a uniform-grid
// spatial index for fast circular range queries.
//
// The paper places IoT devices at ground coordinates (x, y, 0) and the UAV
// at hovering altitude H. Because the hover coverage condition (Eq. 1 of the
// paper) projects everything onto the ground plane with effective radius
// R0 = sqrt(R^2 - H^2), all geometry in this package is two-dimensional;
// altitude enters only through the energy and coverage models.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the ground plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form on hot paths such as
// coverage queries.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
// t = 0 yields p, t = 1 yields q; t outside [0, 1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Circle is a disk of radius R centred at C, used to model the projected
// hover coverage region of the UAV.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether q lies inside or on the boundary of the circle,
// with a small relative tolerance so exact-boundary points survive float
// rounding at any scale.
func (c Circle) Contains(q Point) bool {
	r2 := c.R * c.R
	return c.C.Dist2(q) <= r2+1e-9*(1+r2)
}

// Rect is an axis-aligned rectangle, min-corner inclusive, max-corner
// inclusive. It models the monitoring region.
type Rect struct {
	Min, Max Point
}

// Square returns the axis-aligned square [0, side] × [0, side], the shape of
// the paper's 1000 m × 1000 m monitoring region.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the extent of r along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies in r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: min(max(p.X, r.Min.X), r.Max.X),
		Y: min(max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// ClosestPointOnSegment returns the point of segment ab closest to p.
func ClosestPointOnSegment(p, a, b Point) Point {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 { //uavdc:allow floateq exact degenerate-segment guard; any nonzero den divides safely
		return a
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Lerp(b, t)
}
