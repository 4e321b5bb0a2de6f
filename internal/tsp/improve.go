package tsp

import (
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// SpanImprove is the trace span wrapping one Improve polish (2-opt +
// Or-opt to a fixed point).
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

// twoOpt improves t in place by repeatedly reversing segments while an
// improving 2-exchange exists, up to maxRounds full sweeps (≤ 0 means sweep
// until no improvement). Returns the total cost reduction and the number
// of accepted moves, which r also counts, with the sweeps.
func twoOpt(t *Tour, x *Matrix, maxRounds int, r obs.Recorder) (float64, int) {
	n := t.Len()
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterTwoOptPasses)
	moves := r.Counter(CounterTwoOptMoves)
	var saved float64
	var moved int
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for i := 0; i < n-1; i++ {
			a := t.Order[i]
			b := t.Order[i+1]
			dAB := x.at(a, b)
			for j := i + 2; j < n; j++ {
				// Reversing t.Order[i+1..j] replaces edges (a,b),(c,d)
				// with (a,c),(b,d).
				c := t.Order[j]
				d := t.Order[(j+1)%n]
				if i == 0 && j == n-1 {
					continue // same edge pair on the cycle
				}
				delta := x.at(a, c) + x.at(b, d) - dAB - x.at(c, d)
				if delta < -1e-12 {
					reverse(t.Order[i+1 : j+1])
					saved -= delta
					improved = true
					moved++
					moves.Inc()
					b = t.Order[i+1]
					dAB = x.at(a, b)
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
}

// orOpt improves t in place by relocating chains of 1–3 consecutive items
// to better positions, complementing 2-opt (which cannot fix misplaced
// single stops), up to maxRounds rounds. Returns the total cost reduction
// and the number of accepted relocations, which r also counts, with the
// rounds.
func orOpt(t *Tour, x *Matrix, maxRounds int, r obs.Recorder) (float64, int) {
	n := t.Len()
	if n < 4 {
		return 0, 0
	}
	passes := r.Counter(CounterOrOptPasses)
	moves := r.Counter(CounterOrOptMoves)
	var saved float64
	var moved int
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for segLen := 1; segLen <= 3 && segLen < n-1; segLen++ {
			for i := 0; i < n; i++ {
				// Segment s = positions i..i+segLen-1 (cyclic segments
				// crossing the wrap are skipped; a full sweep still sees
				// every segment in some rotation over successive rounds).
				if i+segLen > n {
					continue
				}
				prev := t.Order[(i-1+n)%n]
				segStart := t.Order[i]
				segEnd := t.Order[i+segLen-1]
				next := t.Order[(i+segLen)%n]
				if prev == segEnd || next == segStart {
					continue // segment is the whole cycle
				}
				removeGain := x.at(prev, segStart) + x.at(segEnd, next) - x.at(prev, next)
				if removeGain <= 1e-12 {
					continue
				}
				// Try inserting between every other edge (a, b).
				for j := 0; j < n; j++ {
					a := t.Order[j]
					b := t.Order[(j+1)%n]
					// Skip edges touching the segment or its boundary.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					if i == 0 && j == n-1 {
						continue
					}
					insCost := x.at(a, segStart) + x.at(segEnd, b) - x.at(a, b)
					if insCost < removeGain-1e-12 {
						relocate(t.Order, i, segLen, j)
						saved += removeGain - insCost
						improved = true
						moved++
						moves.Inc()
						// Restart scanning this segment length.
						i = -1
						break
					}
				}
				if i == -1 {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved, moved
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

// Improve applies 2-opt to a fixed point, then up to two Or-opt rounds,
// until neither helps (bounded iterations), returning the total
// reduction. This is the standard polish the planners apply after
// construction. An optional obs.Recorder counts both passes' sweeps and
// moves and receives the tsp/improve span.
func Improve(t *Tour, x *Matrix, rec ...obs.Recorder) float64 {
	saved, _ := improve(t, x, obs.First(rec...))
	return saved
}

// improveIters caps Improve's 2-opt + Or-opt iterations.
const improveIters = 8

// improve is Improve, also reporting whether its last iteration accepted
// no move. That is the only way it stops before the iteration cap, and it
// means the final tour is a fixed point of one full 2-opt sweep and one
// full Or-opt round: every pair both scan evaluated was non-improving.
func improve(t *Tour, x *Matrix, r obs.Recorder) (total float64, fixed bool) {
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", t.Len()))
	for iter := 0; iter < improveIters; iter++ {
		s2, m2 := twoOpt(t, x, 0, r)
		s3, m3 := orOpt(t, x, 2, r)
		d := s2 + s3
		total += d
		fixed = m2+m3 == 0
		if d <= 1e-12 {
			break
		}
	}
	end(trace.Num("saved_m", total))
	return total, fixed
}
