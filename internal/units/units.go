// Package units gives the planner's physical quantities defined types.
// Every quantity in the paper's model — hover power η_h, travel power
// η_t (J/s), cruising speed v (m/s), battery capacity E (J), data
// volumes D_v and bandwidth B — is a float64 whose dimension used to
// live only in a doc comment. A defined float64 type changes no
// arithmetic (same representation, same operations, bit-identical
// results) but makes a J-vs-m or J-vs-J/s mix-up a compile error, and
// lets the unitsafety analyzer (internal/lint) flag the casts that
// would launder a dimension through a conversion.
//
// The canonical scales follow the paper's experimental settings:
// Joules, Watts (J/s), Seconds, Meters, MetersPerSecond, and — for data
// — megabytes. Bits and BitsPerSecond name the information dimension,
// not the prefix: a Bits value of 1 is one MB, matching the paper's D_v
// and B = 150 MB/s. The type tracks what a value *is*; the scale is a
// repo-wide convention.
//
// Crossing dimensions goes through the closed helper set below (Energy,
// TravelTime, Transfer, ...), each of which computes exactly the
// expression its physics formula writes. Same-dimension arithmetic
// (sums, differences, comparisons, untyped-constant scaling like
// `e * 0.5`) works directly on the typed values. Leaving the typed
// world — instrumentation, JSON encoding, rendering — is an explicit
// .F() call, the one sanctioned escape; a plain float64(x) conversion
// of a unit value outside this package is a unitsafety diagnostic.
package units

import "math"

// Joules is an amount of energy (battery capacity E, hover/travel/climb
// energy, edge weights of the Eq. 9 auxiliary graph).
type Joules float64

// Watts is a power draw in J/s (η_h, η_t, climb power).
type Watts float64

// Seconds is a duration (sojourn times t(s_j), travel times).
type Seconds float64

// Meters is a ground or slant distance (δ, R0, altitude H, tour legs).
type Meters float64

// MetersPerSecond is a speed (cruising speed v, climb rate).
type MetersPerSecond float64

// Bits is an amount of data, in the repo's canonical MB scale (the
// paper's per-sensor volume D_v and the award P(s_j)).
type Bits float64

// BitsPerSecond is a data rate, in MB/s (the paper's bandwidth B).
type BitsPerSecond float64

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q Joules) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q Watts) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q Seconds) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q Meters) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q MetersPerSecond) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q Bits) F() float64 { return float64(q) }

// F unwraps the quantity to a plain float64 at a typed-world boundary.
func (q BitsPerSecond) F() float64 { return float64(q) }

// Energy is power sustained over a duration: p·t, in J.
func Energy(p Watts, t Seconds) Joules { return Joules(float64(p) * float64(t)) }

// Duration is how long an energy store sustains a power draw: e/p, in s.
func Duration(e Joules, p Watts) Seconds { return Seconds(float64(e) / float64(p)) }

// TravelTime is the time to cover a distance at a speed: d/v, in s.
func TravelTime(d Meters, v MetersPerSecond) Seconds { return Seconds(float64(d) / float64(v)) }

// Transfer is the data moved at a rate over a duration: r·t, in MB.
func Transfer(r BitsPerSecond, t Seconds) Bits { return Bits(float64(r) * float64(t)) }

// TransferTime is the time to move a volume at a rate: b/r, in s.
func TransferTime(b Bits, r BitsPerSecond) Seconds { return Seconds(float64(b) / float64(r)) }

// Scale multiplies a quantity by a dimensionless factor, preserving its
// unit (noise surcharges, safety margins, the ½ of Eq. 9).
func Scale[T ~float64](q T, k float64) T { return T(float64(q) * k) }

// Ratio is the dimensionless quotient of two like quantities.
func Ratio[T ~float64](a, b T) float64 { return float64(a) / float64(b) }

// Min returns the smaller of two like quantities, by the builtin min:
// −0 is below +0 and −Inf below all else, as in math.Min, and a NaN
// operand gives a NaN (math.Min gives −Inf for min(−Inf, NaN)).
func Min[T ~float64](a, b T) T { return min(a, b) }

// Abs returns the magnitude of a quantity.
func Abs[T ~float64](q T) T { return T(math.Abs(float64(q))) }

// Hypot is the Euclidean hypotenuse of two distances (slant paths),
// with math.Hypot's overflow-safe semantics.
func Hypot(x, y Meters) Meters { return Meters(math.Hypot(float64(x), float64(y))) }
