package hover

import (
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
)

// BenchmarkBuildPaperScale measures candidate construction at the paper's
// full setting (500 sensors, 1 km², δ = 10 m → 10 000 squares).
func BenchmarkBuildPaperScale(b *testing.B) {
	net, err := sensornet.Generate(sensornet.DefaultGenParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Build(net, energy.Default(), 10, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.Len()), "candidates")
			b.ReportMetric(float64(s.PrunedDup), "pruned_dup")
		}
	}
}

// BenchmarkBuildFine measures the δ = 5 m worst case (40 000 squares).
func BenchmarkBuildFine(b *testing.B) {
	net, err := sensornet.Generate(sensornet.DefaultGenParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(net, energy.Default(), 5, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildPaperScaleAllocs bounds the allocations of a paper-scale build:
// the set, its Locs, a few chunks of arena, candidates and buckets. A
// per-square or per-candidate allocation (a key string, a copied set)
// would put it in the thousands.
func TestBuildPaperScaleAllocs(t *testing.T) {
	net, err := sensornet.Generate(sensornet.DefaultGenParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(net, energy.Default(), 10, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("paper-scale Build allocates %v times, want at most 100", allocs)
	}
}
