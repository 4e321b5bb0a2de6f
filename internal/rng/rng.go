// Package rng provides deterministic, splittable random number generation
// for reproducible experiments.
//
// The paper averages every data point over 15 random network instances. To
// make each instance reproducible in isolation (so a single failing instance
// can be re-run without replaying the whole sweep), experiments derive one
// child seed per (experiment, parameter, instance) triple via Split, which
// hashes the parent seed with a label using an FNV-style mix. Two sweeps
// sharing a parent seed therefore see identical network instances, which is
// what makes algorithm-vs-algorithm comparisons paired rather than merely
// repeated.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic seed from which generators and child seeds are
// derived.
type Source struct {
	seed uint64
}

// New returns a Source with the given seed.
func New(seed uint64) Source { return Source{seed: seed} }

// Split derives an independent child Source identified by label. Identical
// (parent, label) pairs always yield the same child; distinct labels yield
// (statistically) independent streams.
func (s Source) Split(label string) Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(s.seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return Source{seed: h.Sum64()}
}

// SplitN derives the n-th indexed child, convenient for per-instance seeds.
func (s Source) SplitN(label string, n int) Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(s.seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	var nb [8]byte
	for i := range nb {
		nb[i] = byte(uint64(n) >> (8 * i))
	}
	h.Write(nb[:])
	return Source{seed: h.Sum64()}
}

// Rand returns a math/rand generator seeded from the Source. Each call
// returns a fresh generator with identical stream; callers that need
// independent streams should Split first.
func (s Source) Rand() *rand.Rand {
	return rand.New(rand.NewSource(int64(s.seed)))
}

// Uniform returns a value drawn uniformly from [lo, hi) using r.
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}
