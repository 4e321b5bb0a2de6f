package hover

import (
	"math"
	"strings"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

func TestBuildWithAltitudeShrinksCoverage(t *testing.T) {
	net := smallNet() // CommRange 15
	ground, err := Build(net, energy.Default(), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Build(net, energy.Default(), 5, Options{Altitude: 12}) // R0 = 9
	if err != nil {
		t.Fatal(err)
	}
	if high.CoverRadius >= ground.CoverRadius {
		t.Errorf("altitude should shrink R0: %v vs %v", high.CoverRadius, ground.CoverRadius)
	}
	if want := math.Sqrt(15*15 - 12*12); math.Abs(high.CoverRadius.F()-want) > 1e-9 {
		t.Errorf("R0 = %v, want %v", high.CoverRadius, want)
	}
	if _, err := Build(net, energy.Default(), 5, Options{Altitude: -1}); err == nil {
		t.Error("negative altitude accepted")
	}
	if _, err := Build(net, energy.Default(), 5, Options{Altitude: 15}); err == nil {
		t.Error("altitude = range leaves zero coverage and should fail")
	}
	if _, err := Build(net, energy.Default(), 5, Options{Altitude: 20}); err == nil {
		t.Error("altitude above range accepted")
	}
}

func TestBuildWithRadioSlowsFarSensors(t *testing.T) {
	net := smallNet()
	constant, err := Build(net, energy.Default(), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shannon := radio.Shannon{RefRate: units.BitsPerSecond(net.Bandwidth), RefDist: 1, RefSNR: 100, PathLossExp: 2}
	radios, err := Build(net, energy.Default(), 5, Options{Altitude: 10, CoverRadius: units.Meters(net.CommRange), Radio: shannon})
	if err != nil {
		t.Fatal(err)
	}
	if radios.Len() != constant.Len() {
		t.Fatalf("same R0 should give same candidates: %d vs %d", radios.Len(), constant.Len())
	}
	slower := 0
	for i := 1; i < radios.Len(); i++ {
		rl, cl := radios.Locs[i], constant.Locs[i]
		if rl.Rates == nil {
			t.Fatal("radio build must populate Rates")
		}
		for j := range rl.Covered {
			if rl.Rates[j].F() > net.Bandwidth+1e-9 {
				t.Fatalf("rate above calibration bandwidth: %v", rl.Rates[j])
			}
		}
		// Sojourn can only lengthen when rates drop.
		if rl.Sojourn < cl.Sojourn-1e-9 {
			t.Fatalf("location %d: radio sojourn %v shorter than constant %v", i, rl.Sojourn, cl.Sojourn)
		}
		if rl.Sojourn > cl.Sojourn+1e-9 {
			slower++
		}
		// Award (full volumes) is unchanged.
		if math.Abs((rl.Award - cl.Award).F()) > 1e-9 {
			t.Fatalf("award changed under radio model")
		}
	}
	if slower == 0 {
		t.Error("no sojourn lengthened — radio model had no effect")
	}
}

func TestRateAtUsesRates(t *testing.T) {
	net := smallNet()
	shannon := radio.Shannon{RefRate: units.BitsPerSecond(net.Bandwidth), RefDist: 1, RefSNR: 100, PathLossExp: 3}
	s, err := Build(net, energy.Default(), 5, Options{Altitude: 10, CoverRadius: units.Meters(net.CommRange), Radio: shannon})
	if err != nil {
		t.Fatal(err)
	}
	for base := 1; base < s.Len(); base++ {
		loc := &s.Locs[base]
		for i := range loc.Covered {
			if s.RateAt(base, i) != loc.Rates[i] {
				t.Fatal("RateAt disagrees with Rates")
			}
		}
	}
}

func TestResidualDrainWithRates(t *testing.T) {
	residual := []units.Bits{100, 0, 40}
	rates := []units.BitsPerSecond{5, 10, 20}
	sojourn, award := ResidualDrain([]int{0, 1, 2}, residual, rates, 999)
	if award != 140 {
		t.Errorf("award = %v", award)
	}
	if sojourn != 20 { // 100 MB at 5 MB/s dominates
		t.Errorf("sojourn = %v, want 20", sojourn)
	}
}

// cutoffRadio uploads at a fixed rate up to a slant distance and at zero
// rate beyond it: an invalid model, so Build must refuse it.
type cutoffRadio struct{ max units.Meters }

func (c cutoffRadio) Rate(d units.Meters) units.BitsPerSecond {
	if d > c.max {
		return 0
	}
	return 10
}

// TestBuildRadioErrorOnLosingDuplicate builds a field whose only square
// with a non-positive rate duplicates an earlier square's coverage and
// loses the centroid tie-break. Build must still fail there: the rate
// check runs on every non-empty square, not only on the kept ones.
func TestBuildRadioErrorOnLosingDuplicate(t *testing.T) {
	// One sensor at (12, 5) and R0 = 14 on a 30 m square at δ = 10: the
	// squares centred at (5,5), (15,5), (25,5), (5,15) and (15,15) cover
	// it, at 7, 3, 13, 12.2 and 10.4 m. (15,5) wins the tie-break, and
	// only (25,5), a losing duplicate, is beyond the 12.5 m cut-off.
	net := &sensornet.Network{
		Region:    geom.Square(30),
		Depot:     geom.Pt(0, 0),
		Bandwidth: 10,
		CommRange: 14,
		Sensors:   []sensornet.Sensor{{Pos: geom.Pt(12, 5), Data: 100}},
	}
	opts := Options{CoverRadius: 14, Radio: cutoffRadio{max: 20}}
	s, err := Build(net, energy.Default(), 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.PrunedDup != 4 || s.Locs[1].Pos != geom.Pt(15, 5) {
		t.Fatalf("want one kept square at (15,5) and 4 duplicates, got %d locations, %d duplicates, kept %v",
			s.Len()-1, s.PrunedDup, s.Locs[s.Len()-1].Pos)
	}
	opts.Radio = cutoffRadio{max: 12.5}
	_, err = Build(net, energy.Default(), 10, opts)
	if err == nil || !strings.Contains(err.Error(), "non-positive rate") || !strings.Contains(err.Error(), "slant 13") {
		t.Fatalf("want a non-positive rate error at slant 13, got %v", err)
	}
}
