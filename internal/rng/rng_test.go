package rng

import "testing"

func TestSplitDeterministic(t *testing.T) {
	a := New(42).Split("fig3a")
	b := New(42).Split("fig3a")
	if a.Seed() != b.Seed() {
		t.Error("same (parent, label) must give same child")
	}
	c := New(42).Split("fig3b")
	if a.Seed() == c.Seed() {
		t.Error("different labels should give different children")
	}
	d := New(43).Split("fig3a")
	if a.Seed() == d.Seed() {
		t.Error("different parents should give different children")
	}
}

func TestSplitNDistinct(t *testing.T) {
	parent := New(7)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := parent.SplitN("instance", i).Seed()
		if seen[s] {
			t.Fatalf("duplicate child seed at n=%d", i)
		}
		seen[s] = true
	}
}

func TestRandStreamsReproducible(t *testing.T) {
	s := New(123).Split("x")
	r1, r2 := s.Rand(), s.Rand()
	for i := 0; i < 10; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("two Rand() from same source must emit identical streams")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1).Rand()
	for i := 0; i < 1000; i++ {
		v := Uniform(r, 100, 1000)
		if v < 100 || v >= 1000 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(2).Rand()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Uniform(r, 0, 10)
	}
	mean := sum / n
	if mean < 4.8 || mean > 5.2 {
		t.Errorf("Uniform mean = %v, want ≈ 5", mean)
	}
}

// Seed returns the underlying seed value.
func (s Source) Seed() uint64 { return s.seed }
