package hover

import (
	"math"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/radio"
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
