package tsp

import (
	"slices"

	"uavdc/internal/obs"
)

// fixedPoint is a tour's memory of its last fixed point F: the order an
// improve left when its last iteration accepted no move. Every 2-opt pair
// and Or-opt test that iteration evaluated on F was non-improving, so
// after the tour is edited, the next improve need only evaluate what
// touches an edge F does not certify — a dirty edge:
//   - an edge F does not hold in that direction;
//   - an edge a move of this search reversed or relocated (for Or-opt,
//     the moved segment's edges and the new edges at both of its ends);
//   - every edge, when the others no longer appear in F's order, as after
//     a rotation.
//
// A 2-opt pair over clean edges only has the same operands, in the same
// order, as one F's last sweep evaluated: it is evaluated exactly when
// the two edges share no item, on F as now. An Or-opt test (one segment
// window, prev → start, the segment's edges and end → next, against one
// insertion edge) over clean edges only reads the same four items as on
// F, wherever it sits; F skipped it only if the window held F's closing
// edge inside, and then the edge after it, F's first, would follow F's
// last among the clean edges. So neither can improve, and the replay
// runs improve's exact rounds, scan order and move-then-continue
// semantics, skipping only those. Removing or inserting an item keeps
// every other edge and its order, so only the edges at the edit are
// dirty, and a move keeps the order of the edges it leaves clean. What F
// certifies depends only on the tour, so F outlives a search that stops
// short of a new fixed point.
//
// Items index the per-item slices, which grow with the matrix.
type fixedPoint struct {
	// order is F, empty when the tour holds no fixed point; at maps an
	// item to its position in F, -1 when absent.
	order []int
	at    []int
	// dirty marks, per item of the tour being searched, that the edge
	// leaving it is dirty. dl lists the positions of the dirty edges in
	// ascending order, rebuilt when stale.
	dirty []bool
	dl    []int
	stale bool
}

// improve is improve on t, skipping the evaluations F certifies, and
// remembers the fixed point it reaches.
func (f *fixedPoint) improve(t *Tour, x *Matrix, r obs.Recorder) float64 {
	for len(f.at) < x.n {
		f.at = append(f.at, -1)
		f.dirty = append(f.dirty, false)
	}
	g := f
	if !f.mark(t.Order) {
		g = nil // nothing is certified: the full search
	}
	saved, fixed := improve(t, x, r, g)
	// Below 4 items the sweeps evaluate nothing, so certify nothing.
	if fixed && t.Len() >= 4 {
		for _, u := range f.order {
			f.at[u] = -1
		}
		f.order = append(f.order[:0], t.Order...)
		for p, u := range f.order {
			f.at[u] = p
		}
	}
	return saved
}

// mark sets the dirty bits of the edited order o against F. It reports
// false when every edge is dirty.
func (f *fixedPoint) mark(o []int) bool {
	n, nf := len(o), len(f.order)
	if nf == 0 || n < 4 {
		return false
	}
	last := -1
	for p, u := range o {
		v := o[0]
		if p+1 < n {
			v = o[p+1]
		}
		q := f.at[u]
		clean := q >= 0 && f.order[(q+1)%nf] == v
		if clean {
			if q <= last {
				return false // out of F's order
			}
			last = q
		}
		f.dirty[u] = !clean
	}
	f.stale = true
	return true
}

// touch marks the edges leaving items dirty.
func (f *fixedPoint) touch(items ...int) {
	for _, u := range items {
		f.dirty[u] = true
	}
	f.stale = true
}

// clean reports that no edge leaving items is dirty.
func (f *fixedPoint) clean(items []int) bool {
	for _, u := range items {
		if f.dirty[u] {
			return false
		}
	}
	return true
}

// list rebuilds dl for order o if a move made it stale.
func (f *fixedPoint) list(o []int) {
	if !f.stale {
		return
	}
	f.dl = f.dl[:0]
	for p, u := range o {
		if f.dirty[u] {
			f.dl = append(f.dl, p)
		}
	}
	f.stale = false
}

// twoOpt is twoOpt's sweep to a fixed point (maxRounds ≤ 0). A row whose
// edge is clean evaluates only the dirty columns; a move makes its row
// dirty, so the row's scan goes on over every column.
func (f *fixedPoint) twoOpt(t *Tour, x *Matrix, r obs.Recorder) (float64, int) {
	o := t.Order
	n := len(o)
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterTwoOptPasses)
	moves := r.Counter(CounterTwoOptMoves)
	var saved float64
	var moved int
	for {
		passes.Inc()
		improved := false
		for i := 0; i < n-1; i++ {
			a := o[i]
			b := o[i+1]
			dAB := x.at(a, b)
			k := -1 // next index into dl on a clean row, -1 on a full scan
			if !f.dirty[a] {
				f.list(o)
				k, _ = slices.BinarySearch(f.dl, i+2)
			}
			for j := i + 2; ; j++ {
				if k >= 0 {
					if k == len(f.dl) {
						break
					}
					j = f.dl[k]
					k++
				}
				if j >= n {
					break
				}
				c := o[j]
				d := o[(j+1)%n]
				if i == 0 && j == n-1 {
					continue
				}
				ac, bd, cd := x.at(a, c), x.at(b, d), x.at(c, d)
				delta := ac + bd - dAB - cd
				if improves(delta, ac, bd, dAB, cd) {
					reverse(o[i+1 : j+1])
					saved -= delta
					improved = true
					moved++
					moves.Inc()
					b = o[i+1]
					dAB = x.at(a, b)
					f.touch(o[i : j+1]...)
					k = -1
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}

// orOpt is orOpt's orOptRounds rounds. A window whose edges are all
// clean is tested against the dirty insertion edges only.
func (f *fixedPoint) orOpt(t *Tour, x *Matrix, r obs.Recorder) (float64, int) {
	o := t.Order
	n := len(o)
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterOrOptPasses)
	moves := r.Counter(CounterOrOptMoves)
	var saved float64
	var moved int
	for round := 0; round < orOptRounds; round++ {
		passes.Inc()
		improved := false
		for segLen := 1; segLen <= 3 && segLen < n-1; segLen++ {
			f.list(o)
		scan:
			for i := 0; i+segLen <= n; i++ {
				prev := o[(i-1+n)%n]
				segStart := o[i]
				segEnd := o[i+segLen-1]
				next := o[(i+segLen)%n]
				if prev == segEnd || next == segStart {
					continue
				}
				k := -1 // next index into dl on a clean window
				if !f.dirty[prev] && f.clean(o[i:i+segLen]) {
					if len(f.dl) == 0 {
						continue
					}
					k = 0
				}
				removeGain := x.at(prev, segStart) + x.at(segEnd, next) - x.at(prev, next)
				if removeGain <= 1e-12 {
					continue
				}
				for j := 0; ; j++ {
					if k >= 0 {
						if k == len(f.dl) {
							break
						}
						j = f.dl[k]
						k++
					}
					if j >= n {
						break
					}
					a := o[j]
					b := o[(j+1)%n]
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					if i == 0 && j == n-1 {
						continue
					}
					insCost := x.at(a, segStart) + x.at(segEnd, b) - x.at(a, b)
					if insCost < removeGain-1e-12 {
						f.touch(prev, a)
						f.touch(o[i : i+segLen]...)
						relocate(o, i, segLen, j)
						saved += removeGain - insCost
						improved = true
						moved++
						moves.Inc()
						break scan
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}

// Retour is ImproveMetric for a tour that is polished again after every
// edit, the greedy planners' re-tour after each acceptance. It keeps a
// matrix over slots, one per item in order of first appearance, that
// grows by one row and column per new item, and the tour's last fixed
// point over it. improve reads only matrix values and positions, never
// labels, so any consistent labelling makes the same moves: every call
// returns, and leaves behind, exactly the reduction, tour, counters and
// trace span of ImproveMetric on the same tour. A zero Retour is ready
// to use; it serves one tour under one metric.
type Retour struct {
	x     Matrix // x.n is the capacity in slots
	label []int  // slot → item
	slot  []int32
	local Tour
	fp    fixedPoint
}

// Improve is ImproveMetric on t under m.
func (rt *Retour) Improve(t *Tour, m Metric, rec ...obs.Recorder) float64 {
	rt.local.Order = rt.local.Order[:0]
	for _, v := range t.Order {
		for len(rt.slot) <= v {
			rt.slot = append(rt.slot, -1)
		}
		if rt.slot[v] < 0 {
			rt.add(v, m)
		}
		rt.local.Order = append(rt.local.Order, int(rt.slot[v]))
	}
	saved := rt.fp.improve(&rt.local, &rt.x, obs.First(rec...))
	for i, s := range rt.local.Order {
		t.Order[i] = rt.label[s]
	}
	return saved
}

// add gives item v the next slot, doubling the matrix when it is full.
func (rt *Retour) add(v int, m Metric) {
	k := len(rt.label)
	if k == rt.x.n {
		c := max(16, 2*k)
		d := make([]float64, c*c)
		for i := 0; i < k; i++ {
			copy(d[i*c:i*c+k], rt.x.d[i*k:i*k+k]) // the old stride is k
		}
		rt.x = Matrix{n: c, d: d}
	}
	c := rt.x.n
	for i, u := range rt.label {
		rt.x.d[i*c+k] = m(u, v)
		rt.x.d[k*c+i] = m(v, u)
	}
	rt.label = append(rt.label, v)
	rt.slot[v] = int32(k)
}
