package tsp

import (
	"slices"

	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// SpanImprove is the trace span wrapping one polish (2-opt + Or-opt to a
// fixed point).
const SpanImprove = "tsp/improve"

// Instrumentation counter names recorded by the local-search passes. A
// "pass" is one full sweep over the tour; a "move" is one accepted
// improving exchange or relocation.
const (
	CounterTwoOptPasses = "tsp.twoopt_passes"
	CounterTwoOptMoves  = "tsp.twoopt_moves"
	CounterOrOptPasses  = "tsp.oropt_passes"
	CounterOrOptMoves   = "tsp.oropt_moves"
)

// improveIters caps a polish's 2-opt + Or-opt iterations, and
// orOptRounds the Or-opt rounds of one iteration.
const (
	improveIters = 8
	orOptRounds  = 2
)

// fixedPoint runs the local search every polish in this package uses:
// iterations of 2-opt to a fixed point, then up to orOptRounds Or-opt
// rounds, until an iteration saves nothing or improveIters have run. It
// remembers the tour's last fixed point F: the order a polish left when
// its last iteration accepted no move. Every 2-opt pair and Or-opt test
// that iteration evaluated on F was non-improving, so after the tour is
// edited, the next polish need only evaluate what touches an edge F does
// not certify — a dirty edge:
//   - an edge F does not hold in that direction;
//   - an edge a move of this search reversed or relocated (for Or-opt,
//     the moved segment's edges and the new edges at both of its ends);
//   - every edge, when F is empty, the tour has fewer than 4 items, or
//     the other edges no longer appear in F's order, as after a rotation.
//     Then the polish is a fresh search, which evaluates every pair.
//
// A 2-opt pair over clean edges only has the same operands, in the same
// order, as one F's last sweep evaluated: it is evaluated exactly when
// the two edges share no item, on F as now. An Or-opt test (one segment
// window, prev → start, the segment's edges and end → next, against one
// insertion edge) over clean edges only reads the same four items as on
// F, wherever it sits; F skipped it only if the window held F's closing
// edge inside, and then the edge after it, F's first, would follow F's
// last among the clean edges. So neither can improve, and the replay
// makes the moves of a fresh search, in its scan order and with its
// move-then-continue semantics, skipping only those. Removing or
// inserting an item keeps every other edge and its order, so only the
// edges at the edit are dirty, and a move keeps the order of the edges
// it leaves clean. What F certifies depends only on the tour, so F
// outlives a search that stops short of a new fixed point.
//
// Items index the per-item slices, which are sized to the matrix.
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

// improve polishes t on x, skipping the evaluations F certifies, and
// remembers the fixed point it reaches. It returns the total reduction;
// r counts both passes' sweeps and moves and receives the tsp/improve
// span.
func (f *fixedPoint) improve(t *Tour, x *Matrix, r obs.Recorder) float64 {
	if k := len(f.at); k < x.n {
		f.at = slices.Grow(f.at, x.n-k)[:x.n]
		for u := k; u < x.n; u++ {
			f.at[u] = -1
		}
		f.dirty = make([]bool, x.n)
	}
	if !f.mark(t.Order) {
		f.touch(t.Order...) // nothing is certified: a fresh search
	}
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", t.Len()))
	var total float64
	fixed := false
	for iter := 0; iter < improveIters; iter++ {
		s2, m2 := f.twoOpt(t, x, r)
		s3, m3 := f.orOpt(t, x, r)
		d := s2 + s3
		total += d
		fixed = m2+m3 == 0
		if d <= 1e-12 {
			break
		}
	}
	end(trace.Num("saved_m", total))
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
	return total
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

// twoOpt reverses segments while an improving 2-exchange exists, sweeping
// until a sweep accepts none, and returns the total reduction and the
// number of accepted moves, which r also counts, with the sweeps. Row i
// is the edge (o[i], o[i+1]); column j > i+1 the edge (o[j], o[j+1]),
// where the last column's edge closes the cycle. A row whose edge is
// dirty evaluates every column. One whose edge is clean evaluates only
// the dirty columns, up to the first that improves; the move makes the
// row dirty, so its scan goes on from there over every column.
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
			ra, rb := x.row(a), x.row(b)
			dAB := ra[b]
			// The row's first and the cycle's last edge share o[0].
			end := n
			if i == 0 {
				end = n - 1
			}
			j := i + 2
			if !f.dirty[a] {
				f.list(o)
				k, _ := slices.BinarySearch(f.dl, j)
				j = end
				for _, c := range f.dl[k:] {
					if c >= end {
						break
					}
					if _, ok := exchange(x, ra, rb, o[c], o[(c+1)%n], dAB); ok {
						j = c
						break
					}
				}
			}
			for ; j < end; j++ {
				if delta, ok := exchange(x, ra, rb, o[j], o[(j+1)%n], dAB); ok {
					reverse(o[i+1 : j+1])
					saved -= delta
					improved = true
					moved++
					moves.Inc()
					b = o[i+1]
					rb = x.row(b)
					dAB = ra[b]
					f.touch(o[i : j+1]...)
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}

// exchange prices the 2-opt move that replaces the edges (a,b), of
// length ab, and (c,d) with (a,c) and (b,d), given the rows of a and b.
// It returns the move's delta and whether it improves.
func exchange(x *Matrix, ra, rb []float64, c, d int, ab float64) (float64, bool) {
	ac, bd, cd := ra[c], rb[d], x.at(c, d)
	delta := ac + bd - ab - cd
	return delta, improves(delta, ac, bd, ab, cd)
}

// improves reports that a 2-opt move of delta ac+bd−ab−cd, over four
// edge lengths, shortens the tour. Besides the absolute −1e-12, the delta
// must be below −1e-14 of the four lengths' sum. Each length is within an
// ulp or so of its exact value and the delta takes three roundings, so its
// error is under 1e-15 of that sum: well below 1e-14, so every accepted
// move shortens the true tour and the sweep ends at any coordinate scale.
// An absolute bound alone sits under the rounding once coordinates reach
// ~1e5 m, where moves that gain nothing can cycle forever. The relative
// test runs only after the absolute one passes.
func improves(delta, ac, bd, ab, cd float64) bool {
	return delta < -1e-12 && delta < -1e-14*(ac+bd+ab+cd)
}

// orOpt runs orOptRounds rounds relocating chains of 1–3 consecutive
// items to better positions, complementing 2-opt (which cannot fix
// misplaced single stops), and returns the total reduction and the number
// of accepted relocations, which r also counts, with the rounds. A round
// makes at most one move per chain length. A window whose edges are all
// dirty is tested against every insertion edge; one whose edges are all
// clean only against the dirty ones.
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
			// Segment s = positions i..i+segLen-1. Segments that cross
			// the wrap are never tested: nothing here rotates the tour,
			// so they stay skipped until a caller does.
		scan:
			for i := 0; i+segLen <= n; i++ {
				prev := o[(i-1+n)%n]
				next := o[(i+segLen)%n]
				if prev == o[i+segLen-1] || next == o[i] {
					continue // segment is the whole cycle
				}
				clean := !f.dirty[prev] && f.clean(o[i:i+segLen])
				if clean && len(f.dl) == 0 {
					continue
				}
				segStart, segEnd := o[i], o[i+segLen-1]
				re := x.row(segEnd)
				ps, en, pn := x.at(prev, segStart), re[next], x.at(prev, next)
				removeGain, rm := ps+en-pn, ps+en+pn
				if removeGain <= 1e-12 {
					continue
				}
				// Try inserting between every other edge (o[j], o[j+1]),
				// up to the first that improves; edges that touch the
				// segment or its boundary, or close the cycle when the
				// segment opens it, are skipped.
				end := n
				if i == 0 {
					end = n - 1
				}
				j := 0
				if clean {
					j = end
					for _, c := range f.dl {
						if c >= end {
							break
						}
						if c >= i-1 && c <= i+segLen-1 {
							continue
						}
						if _, ok := relocation(x, re, o[c], o[(c+1)%n], segStart, removeGain, rm); ok {
							j = c
							break
						}
					}
				}
				for ; j < end; j++ {
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					if insCost, ok := relocation(x, re, o[j], o[(j+1)%n], segStart, removeGain, rm); ok {
						f.touch(prev, o[j])
						f.touch(o[i : i+segLen]...)
						relocate(o, i, segLen, j)
						saved += removeGain - insCost
						improved = true
						moved++
						moves.Inc()
						// One move per chain length and round: go on to
						// the next length.
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

// relocation prices inserting the chain s..e into the edge (a,b), given
// the row of e, against the gain g of removing it from its window, whose
// three edge lengths sum to rm. It returns the insertion cost and whether
// the move shortens the tour: besides the absolute 1e-12, the gain must
// exceed 1e-14 of the six lengths' sum, the bound improves gives 2-opt,
// and for the same reason. The relative test runs only after the absolute
// one passes.
func relocation(x *Matrix, re []float64, a, b, s int, g, rm float64) (float64, bool) {
	ra := x.row(a)
	ins := ra[s] + re[b] - ra[b]
	return ins, ins < g-1e-12 && g-ins > 1e-14*(rm+ra[s]+re[b]+ra[b])
}

// relocate moves the segment order[i:i+segLen] (segLen ≤ 3) so it follows
// the element originally at position j (j outside the segment), shifting
// the items in between in place.
func relocate(order []int, i, segLen, j int) {
	var buf [3]int
	seg := buf[:segLen]
	copy(seg, order[i:i+segLen])
	if j < i {
		copy(order[j+1+segLen:i+segLen], order[j+1:i])
		copy(order[j+1:], seg)
	} else {
		copy(order[i:], order[i+segLen:j+1])
		copy(order[j+1-segLen:], seg)
	}
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
