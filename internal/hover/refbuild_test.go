package hover

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// refBuild is Build as it stood with a string-keyed dedup map and
// append-grown arenas, kept verbatim as the oracle Build is held to: it
// constructs the candidate set for net with grid resolution delta.
// It drops squares with empty coverage sets: the paper assigns them zero
// award and sojourn, so they can never help a tour under a metric. Of the
// candidates with identical coverage sets it keeps the one whose centre
// is closest to the centroid of its covered sensors (minimising
// worst-case link length).
func refBuild(net *sensornet.Network, em energy.Model, delta units.Meters, opts Options) (*Set, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := em.Validate(); err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(net.Region, delta.F())
	if err != nil {
		return nil, err
	}
	if opts.Altitude < 0 {
		return nil, fmt.Errorf("hover: negative altitude %v", opts.Altitude)
	}
	r0 := opts.CoverRadius
	if r0 == 0 {
		if opts.Altitude > 0 {
			var err error
			r0, err = CoverageRadius(units.Meters(net.CommRange), opts.Altitude)
			if err != nil {
				return nil, err
			}
			if r0 == 0 {
				return nil, fmt.Errorf("hover: altitude %v leaves zero coverage at range %v", opts.Altitude, net.CommRange)
			}
		} else {
			r0 = units.Meters(net.CommRange)
		}
	}
	if r0 < 0 {
		return nil, fmt.Errorf("hover: negative coverage radius %v", r0)
	}

	s := &Set{
		Net:         net,
		Model:       em,
		CoverRadius: r0,
		Altitude:    opts.Altitude,
		Radio:       opts.Radio,
		Grid:        grid,
	}

	// The scan keeps one candidate per coverage set and copies a square's
	// covered sensors (and rates) into the arenas only when its set is new;
	// Locs is sized once from the survivors after the scan.
	type candidate struct {
		pos    geom.Point
		sq     int
		lo, hi int // covered[lo:hi], rateArena[lo:hi]
	}
	var (
		cands     []candidate
		covered   []int
		rateArena []units.BitsPerSecond
		buf       []int                 // the current square's covered sensors
		rates     []units.BitsPerSecond // their uplink rates (radio model only)
		key       []byte                // their coverage key
	)
	seen := make(map[string]int) // coverage key → cands index
	idx := net.Index()
	for sq := 0; sq < grid.NumSquares(); sq++ {
		// The last grid row/column may overhang the region when its
		// extent is not a multiple of δ; clamp those centres back onto
		// the boundary so every candidate is a legal hovering position.
		center := net.Region.Clamp(grid.Center(sq))
		buf = idx.WithinAppend(buf[:0], center, r0.F())
		if len(buf) == 0 {
			s.PrunedEmpty++
			continue
		}
		if opts.Radio != nil {
			// Every non-empty square is checked, duplicates included.
			rates = rates[:0]
			for _, v := range buf {
				slant := radio.SlantDist(units.Meters(net.Sensors[v].Pos.Dist(center)), opts.Altitude)
				r := opts.Radio.Rate(slant)
				if !(r > 0) {
					return nil, fmt.Errorf("hover: radio model yields non-positive rate %v at slant %v", r, slant)
				}
				rates = append(rates, r)
			}
		}
		key = refCoverageKey(key[:0], buf)
		if i, ok := seen[string(key)]; ok {
			// Keep whichever centre is closer to the coverage centroid.
			// The set is the same, so a winner replaces only the centre
			// and the rates it sees.
			c := &cands[i]
			mid := centroid(net, buf)
			if mid.Dist(center) < mid.Dist(c.pos) {
				c.pos, c.sq = center, sq
				if opts.Radio != nil {
					copy(rateArena[c.lo:c.hi], rates)
				}
			}
			s.PrunedDup++
			continue
		}
		seen[string(key)] = len(cands)
		lo := len(covered)
		covered = append(covered, buf...)
		rateArena = append(rateArena, rates...)
		cands = append(cands, candidate{pos: center, sq: sq, lo: lo, hi: len(covered)})
	}

	s.Locs = make([]Location, 1, 1+len(cands))
	s.Locs[0] = Location{Pos: net.Depot, SquareIdx: -1}
	for _, c := range cands {
		loc := Location{Pos: c.pos, Covered: covered[c.lo:c.hi:c.hi], SquareIdx: c.sq}
		if opts.Radio != nil {
			loc.Rates = rateArena[c.lo:c.hi:c.hi]
		}
		loc.Sojourn, loc.Award = DrainRates(net, loc.Covered, loc.Rates)
		loc.HoverEnergy = em.HoverEnergy(loc.Sojourn)
		s.Locs = append(s.Locs, loc)
	}
	return s, nil
}

// refCoverageKey appends the coverage key of covered to dst: every
// sensor index as four little-endian bytes. The sets are sorted and every
// index has the same width, so distinct sets of indices below 2³² have
// distinct keys.
func refCoverageKey(dst []byte, covered []int) []byte {
	for _, v := range covered {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// sameLocation reports the first field in which a and b differ, floats
// compared bit for bit, or "" when they are identical. It also requires
// a's Covered and Rates to be capped at their length.
func sameLocation(a, b Location) string {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !bitsEq(a.Pos.X, b.Pos.X) || !bitsEq(a.Pos.Y, b.Pos.Y):
		return "Pos"
	case !slices.Equal(a.Covered, b.Covered) || (a.Covered == nil) != (b.Covered == nil):
		return "Covered"
	case cap(a.Covered) != len(a.Covered):
		return "Covered cap"
	case (a.Rates == nil) != (b.Rates == nil) || len(a.Rates) != len(b.Rates):
		return "Rates"
	case cap(a.Rates) != len(a.Rates):
		return "Rates cap"
	case !bitsEq(a.Sojourn.F(), b.Sojourn.F()):
		return "Sojourn"
	case !bitsEq(a.Award.F(), b.Award.F()):
		return "Award"
	case !bitsEq(a.HoverEnergy.F(), b.HoverEnergy.F()):
		return "HoverEnergy"
	case a.SquareIdx != b.SquareIdx:
		return "SquareIdx"
	}
	for i := range a.Rates {
		if !bitsEq(a.Rates[i].F(), b.Rates[i].F()) {
			return "Rates"
		}
	}
	return ""
}

// TestBuildMatchesReference holds Build to refBuild on random fields and
// on a lattice field whose duplicates tie in the centroid tie-break:
// every Location field, PrunedDup and PrunedEmpty identical, at several δ
// (the sides are not multiples of most of them, so the last row and
// column overhang and are clamped), with and without altitude and a radio
// model, and the same error, at the same square, for a radio model that
// yields a non-positive rate.
func TestBuildMatchesReference(t *testing.T) {
	em := energy.Default()
	var nets []*sensornet.Network
	for seed := uint64(1); seed <= 6; seed++ {
		p := sensornet.DefaultGenParams()
		p.NumSensors = 20 + 40*int(seed)
		p.Side = 230 + 17*float64(seed)
		net, err := sensornet.Generate(p, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	lattice := &sensornet.Network{Region: geom.Square(247), Depot: geom.Pt(0, 0), Bandwidth: 150, CommRange: 50}
	for i := 0; i < 64; i++ {
		pos := geom.Pt(float64(10+30*(i%8)), float64(10+30*(i/8)))
		lattice.Sensors = append(lattice.Sensors, sensornet.Sensor{Pos: pos, Data: float64(100 + 13*i)})
	}
	nets = append(nets, lattice)
	var built, failed, clamped int
	for ni, net := range nets {
		shannon := radio.Shannon{RefRate: units.BitsPerSecond(net.Bandwidth), RefDist: 10, RefSNR: 100, PathLossExp: 2.7}
		for _, delta := range []units.Meters{5, 7.5, 10, 23} {
			for oi, opts := range []Options{
				{},
				{Altitude: 30},
				{CoverRadius: 35},
				{Altitude: 20, Radio: shannon},
				{CoverRadius: 40, Radio: cutoffRadio{max: 39}},
			} {
				got, gotErr := Build(net, em, delta, opts)
				want, wantErr := refBuild(net, em, delta, opts)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("field %d δ %v options %d: error %v, want %v", ni, delta, oi, gotErr, wantErr)
				}
				if gotErr != nil {
					failed++
					continue
				}
				built++
				if got.PrunedDup != want.PrunedDup || got.PrunedEmpty != want.PrunedEmpty || got.Len() != want.Len() {
					t.Fatalf("field %d δ %v options %d: %d locations, %d dup, %d empty; want %d, %d, %d", ni, delta, oi,
						got.Len(), got.PrunedDup, got.PrunedEmpty, want.Len(), want.PrunedDup, want.PrunedEmpty)
				}
				for i := range got.Locs {
					if f := sameLocation(got.Locs[i], want.Locs[i]); f != "" {
						t.Fatalf("field %d δ %v options %d: location %d differs in %s:\n got %+v\nwant %+v", ni, delta, oi, i, f, got.Locs[i], want.Locs[i])
					}
					if i > 0 && got.Locs[i].Pos != got.Grid.Center(got.Locs[i].SquareIdx) {
						clamped++
					}
				}
			}
		}
	}
	if built == 0 || failed == 0 || clamped == 0 {
		t.Fatalf("want successful builds, radio failures and clamped centres; got %d, %d, %d", built, failed, clamped)
	}
}

// TestCoverSetsChainCollisions forces distinct coverage sets into one
// bucket, by an equal hash and by hashes that differ only below the
// bucket bits, and requires each to be kept and found as itself.
func TestCoverSetsChainCollisions(t *testing.T) {
	var sets coverSets
	const h uint64 = 0xabcdef0123456789
	a, b, c := []int{1, 2}, []int{3}, []int{1, 2, 4}
	sets.add(h, 10, a, nil)
	if sets.find(h, b) != nil || sets.find(h, c) != nil {
		t.Fatal("a distinct set of an equal hash was found as the first")
	}
	sets.add(h, 11, b, nil)
	sets.add(h^1, 12, c, nil) // same bucket, different hash
	if h>>sets.shift != (h^1)>>sets.shift {
		t.Fatal("the test hashes do not share a bucket")
	}
	for _, tc := range []struct {
		h   uint64
		set []int
		sq  int
	}{{h, a, 10}, {h, b, 11}, {h ^ 1, c, 12}} {
		got := sets.find(tc.h, tc.set)
		if got == nil || got.sq != tc.sq || !slices.Equal(sets.set(got), tc.set) {
			t.Fatalf("find(%x, %v) = %+v, want square %d", tc.h, tc.set, got, tc.sq)
		}
	}
	if sets.find(h^1, a) != nil {
		t.Fatal("a set was found under another hash")
	}
	// Past the first bucket table every set is still found after a rehash.
	for i := 0; i < 3*bucketBase; i++ {
		s := []int{100 + i}
		sets.add(h, 20+i, s, nil)
	}
	for i := 0; i < 3*bucketBase; i++ {
		if got := sets.find(h, []int{100 + i}); got == nil || got.sq != 20+i {
			t.Fatalf("set %d lost after rehash: %+v", i, got)
		}
	}
	if got := sets.find(h, b); got == nil || got.sq != 11 {
		t.Fatalf("set b lost after rehash: %+v", got)
	}
}
