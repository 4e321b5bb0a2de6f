package tsp

import (
	"fmt"
	"math"
)

// BestInsertion returns the position pos (0..t.Len()) at which inserting
// item v into t increases the cycle cost least, and that minimum increase.
// Inserting at pos places v before t.Order[pos] (pos == t.Len() appends,
// equivalent to pos == 0 on a cycle but kept distinct for slice surgery).
//
// For a tour of < 2 items the delta is the round trip to the sole existing
// item (or 0 for an empty tour).
func BestInsertion(t Tour, v int, m Metric) (pos int, delta float64) {
	n := t.Len()
	switch n {
	case 0:
		return 0, 0
	case 1:
		return 1, 2 * m(t.Order[0], v)
	}
	pos, delta = 0, math.Inf(1)
	for i := 0; i < n; i++ {
		a := t.Order[i]
		b := t.Order[(i+1)%n]
		d := m(a, v) + m(v, b) - m(a, b)
		if d < delta {
			delta = d
			pos = i + 1
		}
	}
	return pos, delta
}

// Insert returns a new tour with item v inserted at position pos (as
// defined by BestInsertion). The receiver is not modified.
func Insert(t Tour, v int, pos int) Tour {
	if pos < 0 || pos > t.Len() {
		panic(fmt.Sprintf("tsp: insertion position %d out of range [0,%d]", pos, t.Len()))
	}
	order := make([]int, 0, t.Len()+1)
	order = append(order, t.Order[:pos]...)
	order = append(order, v)
	order = append(order, t.Order[pos:]...)
	return Tour{Order: order}
}

// Remove returns a new tour without item v and the resulting cost decrease.
// Removing an item not in the tour returns the tour unchanged with delta 0.
func Remove(t Tour, v int, m Metric) (Tour, float64) {
	i := t.IndexOf(v)
	if i < 0 {
		return t, 0
	}
	delta := RemovalDelta(t, i, m)
	order := make([]int, 0, t.Len()-1)
	order = append(order, t.Order[:i]...)
	order = append(order, t.Order[i+1:]...)
	return Tour{Order: order}, delta
}

// RemovalDelta returns the cost decrease of removing the item at position
// i of t, the delta Remove reports, without copying the tour: the two
// edges at the item less the edge that replaces them, twice the one edge
// of a two-item tour, and 0 for a single item.
func RemovalDelta(t Tour, i int, m Metric) float64 {
	n := t.Len()
	switch {
	case n >= 3:
		a := t.Order[(i-1+n)%n]
		b := t.Order[(i+1)%n]
		v := t.Order[i]
		return m(a, v) + m(v, b) - m(a, b)
	case n == 2:
		return 2 * m(t.Order[0], t.Order[1])
	}
	return 0
}
