package radio

import (
	"math"
	"testing"
	"testing/quick"

	"uavdc/internal/units"
)

func TestDefaultShannonCalibration(t *testing.T) {
	s := DefaultShannon()
	if got := s.Rate(s.RefDist); math.Abs((got - s.RefRate).F()) > 1e-9 {
		t.Errorf("Rate(RefDist) = %v, want %v", got, s.RefRate)
	}
	// Inside the calibration sphere the link saturates at RefRate.
	if got := s.Rate(0); math.Abs((got - s.RefRate).F()) > 1e-9 {
		t.Errorf("Rate(0) = %v, want %v", got, s.RefRate)
	}
}

func TestShannonMonotoneNonIncreasing(t *testing.T) {
	s := DefaultShannon()
	f := func(a, b float64) bool {
		d1 := math.Abs(math.Mod(a, 1000))
		d2 := math.Abs(math.Mod(b, 1000))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return s.Rate(units.Meters(d1)) >= s.Rate(units.Meters(d2))-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShannonPositiveWithinCoverage(t *testing.T) {
	s := DefaultShannon()
	// Out to the paper's maximum slant distance (~71 m at R0=50, H=50).
	for d := units.Meters(0); d <= 200; d += 5 {
		if r := s.Rate(d); r <= 0 || math.IsNaN(r.F()) {
			t.Fatalf("Rate(%v) = %v", d, r)
		}
	}
}

func TestShannonPathLossExponentMatters(t *testing.T) {
	free := DefaultShannon()
	urban := free
	urban.PathLossExp = 3.5
	if urban.Rate(100) >= free.Rate(100) {
		t.Error("steeper path loss should give lower far-field rate")
	}
}

func TestSlantDist(t *testing.T) {
	if got := SlantDist(30, 40); got != 50 {
		t.Errorf("SlantDist(30,40) = %v", got)
	}
	if got := SlantDist(30, 0); got != 30 {
		t.Errorf("altitude 0 should be ground distance: %v", got)
	}
}

// DefaultShannon calibrates a Shannon model to the paper's B = 150 MB/s at
// 10 m with 100× SNR and free-space loss.
func DefaultShannon() Shannon {
	return Shannon{RefRate: 150, RefDist: 10, RefSNR: 100, PathLossExp: 2}
}
