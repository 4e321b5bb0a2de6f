package hover

import (
	"math/bits"
	"slices"

	"uavdc/internal/units"
)

// Chunk sizes of a coverSets: its first candidate chunk, arena chunk and
// bucket table. Each later chunk is twice the one before, so a build
// holds at most about twice what it keeps, and a small field allocates
// little.
const (
	candBase   = 16
	arenaBase  = 64
	bucketBase = 64
)

// coverSets holds the distinct coverage sets of one Build in the order
// they were first seen, each with the square that currently represents
// it. A set is looked up by coverHash: the hash picks a bucket, and the
// bucket's chain is compared by hash and then set by set, so distinct
// sets that collide are chained side by side.
//
// The candidates, the sets and their rates grow by adding chunks, never
// by copying: every set is one contiguous, capped slice of an arena
// chunk, and a candidate's address is stable.
type coverSets struct {
	cands   [][]candidate           // chunk j holds up to candBase<<j candidates
	n       int                     // candidates held
	heads   []int32                 // bucket → its first candidate + 1, or 0
	shift   uint                    // a hash's bucket is h >> shift
	covered [][]int                 // arena chunks of sorted sensor ids
	rates   [][]units.BitsPerSecond // parallel to covered (radio model only)
}

// candidate is one kept coverage set.
type candidate struct {
	sq    int    // the grid square whose centre represents the set
	hash  uint64 // coverHash of the set
	chunk int32  // the set is covered[chunk][lo : lo+n]
	lo, n int32
	next  int32 // the next candidate in the same bucket, or -1
}

// coverHash hashes a sorted set of sensor ids. Each step multiplies, which
// mixes every bit of the state and the id into the top bits the buckets
// are taken from, and folds the top half back into the bottom. The state
// starts from the length times the multiplier, not the bare length: a
// small start can cancel against the first id ({2, 48} and {49} would
// collide).
func coverHash(set []int) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(set)) * k
	for _, v := range set {
		h = (h ^ uint64(v)) * k
		h ^= h >> 32
	}
	return h
}

// at returns candidate i.
func (c *coverSets) at(i int) *candidate {
	j := bits.Len(uint(i/candBase+1)) - 1
	return &c.cands[j][i-candBase*(1<<j-1)]
}

// set returns the sensor ids of cand.
func (c *coverSets) set(cand *candidate) []int {
	return c.covered[cand.chunk][cand.lo : cand.lo+cand.n : cand.lo+cand.n]
}

// ratesOf returns the uplink rates of cand's sensors (radio model only).
func (c *coverSets) ratesOf(cand *candidate) []units.BitsPerSecond {
	return c.rates[cand.chunk][cand.lo : cand.lo+cand.n : cand.lo+cand.n]
}

// find returns the kept candidate whose set is set, of hash h, or nil.
func (c *coverSets) find(h uint64, set []int) *candidate {
	if c.n == 0 {
		return nil
	}
	for i := c.heads[h>>c.shift] - 1; i >= 0; {
		cand := c.at(int(i))
		if cand.hash == h && slices.Equal(c.set(cand), set) {
			return cand
		}
		i = cand.next
	}
	return nil
}

// add keeps set, of hash h, as the coverage of square sq, copying it and
// its rates (nil without a radio model) into the arenas. set must not be
// held already.
func (c *coverSets) add(h uint64, sq int, set []int, rates []units.BitsPerSecond) {
	k := len(c.covered) - 1
	if k < 0 || cap(c.covered[k])-len(c.covered[k]) < len(set) {
		size := max(arenaBase<<len(c.covered), len(set))
		c.covered = append(c.covered, make([]int, 0, size))
		if rates != nil {
			c.rates = append(c.rates, make([]units.BitsPerSecond, 0, size))
		}
		k++
	}
	lo := len(c.covered[k])
	c.covered[k] = append(c.covered[k], set...)
	if rates != nil {
		c.rates[k] = append(c.rates[k], rates...)
	}

	j := len(c.cands) - 1
	if j < 0 || len(c.cands[j]) == cap(c.cands[j]) {
		c.cands = append(c.cands, make([]candidate, 0, candBase<<len(c.cands)))
		j++
	}
	c.cands[j] = append(c.cands[j], candidate{sq: sq, hash: h, chunk: int32(k), lo: int32(lo), n: int32(len(set))})
	c.n++
	if c.n > len(c.heads) {
		c.rehash(max(2*len(c.heads), bucketBase))
		return
	}
	c.link(c.n-1, c.at(c.n-1))
}

// rehash rebuilds the buckets at size (a power of two) from every
// candidate's hash.
func (c *coverSets) rehash(size int) {
	c.heads = make([]int32, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	i := 0
	for _, chunk := range c.cands {
		for k := range chunk {
			c.link(i, &chunk[k])
			i++
		}
	}
}

// link puts candidate i at the head of its bucket's chain.
func (c *coverSets) link(i int, cand *candidate) {
	b := cand.hash >> c.shift
	cand.next = c.heads[b] - 1
	c.heads[b] = int32(i + 1)
}
