package hover

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

func smallNet() *sensornet.Network {
	return &sensornet.Network{
		Region:    geom.Square(100),
		Depot:     geom.Pt(0, 0),
		Bandwidth: 10, // MB/s
		CommRange: 15,
		Sensors: []sensornet.Sensor{
			{Pos: geom.Pt(20, 20), Data: 100}, // 10 s upload
			{Pos: geom.Pt(25, 20), Data: 50},  // 5 s
			{Pos: geom.Pt(80, 80), Data: 200}, // 20 s
		},
	}
}

func TestCoverageRadius(t *testing.T) {
	r0, err := CoverageRadius(50, 30)
	if err != nil || math.Abs(r0.F()-40) > 1e-12 {
		t.Errorf("CoverageRadius(50,30) = %v, %v", r0, err)
	}
	if r0, err := CoverageRadius(50, 0); err != nil || r0 != 50 {
		t.Errorf("H=0 should give R: %v %v", r0, err)
	}
	if r0, err := CoverageRadius(50, 50); err != nil || r0 != 0 {
		t.Errorf("H=R should give 0: %v %v", r0, err)
	}
	if _, err := CoverageRadius(50, 51); err == nil {
		t.Error("H>R accepted")
	}
	if _, err := CoverageRadius(0, 0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := CoverageRadius(50, -1); err == nil {
		t.Error("negative H accepted")
	}
}

func TestBuildBasics(t *testing.T) {
	net := smallNet()
	s, err := Build(net, energy.Default(), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Locs[DepotID].Pos != net.Depot {
		t.Error("location 0 must be the depot")
	}
	if s.Locs[DepotID].Award != 0 || s.Locs[DepotID].Sojourn != 0 || s.Locs[DepotID].HoverEnergy != 0 {
		t.Error("depot must have zero cost and award")
	}
	if s.Len() < 2 {
		t.Fatal("no candidates built")
	}
	// Every kept non-depot location must have non-empty coverage
	// (PruneEmpty default) and consistent derived quantities.
	for i := 1; i < s.Len(); i++ {
		loc := s.Locs[i]
		if len(loc.Covered) == 0 {
			t.Fatalf("location %d kept with empty coverage", i)
		}
		wantSojourn, wantAward := 0.0, 0.0
		for _, v := range loc.Covered {
			d := net.Sensors[v].Data
			wantAward += d
			if tt := d / net.Bandwidth; tt > wantSojourn {
				wantSojourn = tt
			}
			if net.Sensors[v].Pos.Dist(loc.Pos) > net.CommRange+1e-9 {
				t.Fatalf("location %d covers out-of-range sensor %d", i, v)
			}
		}
		if math.Abs(loc.Sojourn.F()-wantSojourn) > 1e-9 || math.Abs(loc.Award.F()-wantAward) > 1e-9 {
			t.Fatalf("location %d: sojourn/award %v/%v, want %v/%v", i, loc.Sojourn, loc.Award, wantSojourn, wantAward)
		}
		if math.Abs(loc.HoverEnergy.F()-150*loc.Sojourn.F()) > 1e-9 {
			t.Fatalf("location %d hover energy inconsistent", i)
		}
	}
	// Completeness: every sensor is covered by at least one candidate
	// (δ=10 < R0=15 guarantees a covering square centre exists).
	covered := map[int]bool{}
	for i := 1; i < s.Len(); i++ {
		for _, v := range s.Locs[i].Covered {
			covered[v] = true
		}
	}
	if len(covered) != len(net.Sensors) {
		t.Errorf("only %d/%d sensors covered by candidates", len(covered), len(net.Sensors))
	}
}

func TestBuildPruning(t *testing.T) {
	net := smallNet()
	pruned, err := Build(net, energy.Default(), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every grid square is either kept or counted as pruned.
	if got, want := pruned.Len()-1+pruned.PrunedEmpty+pruned.PrunedDup, pruned.Grid.NumSquares(); got != want {
		t.Errorf("kept+pruned = %d squares, want %d", got, want)
	}
	if pruned.PrunedEmpty == 0 {
		t.Error("expected empty squares to be pruned on this sparse field")
	}
	// Dedup keeps total coverage identical.
	if got, want := len(pruned.CoverageUnion(rangeInts(1, pruned.Len()))), len(net.Sensors); got != want {
		t.Errorf("pruned set covers %d sensors, want %d", got, want)
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestBuildErrors(t *testing.T) {
	net := smallNet()
	if _, err := Build(net, energy.Default(), 0, Options{}); err == nil {
		t.Error("delta=0 accepted")
	}
	bad := *net
	bad.Bandwidth = 0
	if _, err := Build(&bad, energy.Default(), 10, Options{}); err == nil {
		t.Error("invalid network accepted")
	}
	if _, err := Build(net, energy.Model{}, 10, Options{}); err == nil {
		t.Error("invalid energy model accepted")
	}
	if _, err := Build(net, energy.Default(), 10, Options{CoverRadius: -1}); err == nil {
		t.Error("negative cover radius accepted")
	}
}

func TestDistAndEnergyMetrics(t *testing.T) {
	net := smallNet()
	s, err := Build(net, energy.Default(), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.Dist(i, i) != 0 || s.AuxiliaryWeight(i, i) != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := i + 1; j < s.Len(); j++ {
			if math.Abs(s.Dist(i, j)-s.Dist(j, i)) > 1e-12 {
				t.Fatal("Dist asymmetric")
			}
			wantTE := 10 * s.Dist(i, j) // η_t/v = 10 J/m
			if math.Abs(s.TravelEnergy(i, j).F()-wantTE) > 1e-9 {
				t.Fatalf("TravelEnergy(%d,%d) = %v, want %v", i, j, s.TravelEnergy(i, j), wantTE)
			}
		}
	}
}

// TestAuxiliaryWeightIsMetric verifies Lemma 1 on random instances: w2
// satisfies the triangle inequality.
func TestAuxiliaryWeightIsMetric(t *testing.T) {
	p := sensornet.DefaultGenParams()
	p.NumSensors = 40
	p.Side = 300
	net, err := sensornet.Generate(p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, energy.Default(), 25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	if n > 60 {
		n = 60 // keep the cubic check fast
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if s.AuxiliaryWeight(i, j) > s.AuxiliaryWeight(i, k)+s.AuxiliaryWeight(k, j)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestResidualDrain(t *testing.T) {
	residual := []units.Bits{100, 0, 40}
	sojourn, award := ResidualDrain([]int{0, 1, 2}, residual, nil, 10)
	if award != 140 || sojourn != 10 {
		t.Errorf("ResidualDrain = %v, %v", sojourn, award)
	}
	sojourn, award = ResidualDrain([]int{1}, residual, nil, 10)
	if award != 0 || sojourn != 0 {
		t.Errorf("drained sensor should contribute nothing: %v %v", sojourn, award)
	}
}

func TestCoverageUnion(t *testing.T) {
	net := smallNet()
	s, _ := Build(net, energy.Default(), 10, Options{})
	all := s.CoverageUnion(rangeInts(0, s.Len()))
	if len(all) != len(net.Sensors) {
		t.Errorf("union covers %d sensors, want %d", len(all), len(net.Sensors))
	}
	if got := s.CoverageUnion(nil); len(got) != 0 {
		t.Errorf("empty union = %v", got)
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("union not sorted ascending")
		}
	}
}

func TestBuildPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build in -short mode")
	}
	net, err := sensornet.Generate(sensornet.DefaultGenParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, energy.Default(), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 100×100 grid; nearly all squares are within 50 m of some sensor at
	// this density, so expect thousands of candidates but full coverage.
	if s.Len() < 1000 {
		t.Errorf("suspiciously few candidates: %d", s.Len())
	}
	if got := len(s.CoverageUnion(rangeInts(1, s.Len()))); got != 500 {
		t.Errorf("candidates cover %d/500 sensors", got)
	}
}

// CoverageUnion returns the sorted union of the coverage sets of the given
// locations.
func (s *Set) CoverageUnion(locs []int) []int {
	set := map[int]bool{}
	for _, l := range locs {
		for _, v := range s.Locs[l].Covered {
			set[v] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TestCoverageKeyWidth checks that sets whose indices differ only above
// bit 24 hash apart and are kept as two sets, and that sets a weaker
// hash confused (a start state the first id cancels, a zero id, a high
// bit) hash apart.
func TestCoverageKeyWidth(t *testing.T) {
	for _, pr := range [][2][]int{
		{{1}, {1 + 1<<24}},
		{{2, 48}, {49}},
		{{2, 55}, {54}},
		{{0, 5}, {5}},
		{{0}, {1 << 62}},
	} {
		if coverHash(pr[0]) == coverHash(pr[1]) {
			t.Errorf("coverage hashes of %v and %v collide: %x", pr[0], pr[1], coverHash(pr[0]))
		}
	}
	a, b := []int{1}, []int{1 + 1<<24}
	var sets coverSets
	sets.add(coverHash(a), 0, a, nil)
	if sets.find(coverHash(b), b) != nil {
		t.Fatal("{1+2^24} found as {1}")
	}
	sets.add(coverHash(b), 1, b, nil)
	if c := sets.find(coverHash(b), b); c == nil || c.sq != 1 {
		t.Fatalf("{1+2^24} not kept: %+v", c)
	}
}

// sliceCentroid is the mean of the positions taken as a slice: their sum
// by Add, then Scale by 1/n.
func sliceCentroid(pts []geom.Point) geom.Point {
	var s geom.Point
	for _, p := range pts {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(pts)))
}

// TestCentroidMatchesSliceMean holds Build's allocation-free centroid to
// the slice mean bit for bit, so the duplicate tie-break compares the
// same float64s.
func TestCentroidMatchesSliceMean(t *testing.T) {
	net, err := sensornet.Generate(sensornet.DefaultGenParams(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		covered := r.Perm(len(net.Sensors))[:1+r.Intn(12)]
		pts := make([]geom.Point, len(covered))
		for i, v := range covered {
			pts[i] = net.Sensors[v].Pos
		}
		if got, want := centroid(net, covered), sliceCentroid(pts); got != want {
			t.Fatalf("trial %d: centroid %v, slice mean %v", trial, got, want)
		}
	}
	square := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}
	sq := &sensornet.Network{Sensors: make([]sensornet.Sensor, len(square))}
	for i, p := range square {
		sq.Sensors[i].Pos = p
	}
	if got := centroid(sq, []int{0, 1, 2, 3}); got != geom.Pt(1, 1) {
		t.Errorf("centroid of the unit square's corners = %v", got)
	}
}
