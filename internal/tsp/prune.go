package tsp

import (
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// Pruner holds a tour that is polished by Improve and then loses one item
// at a time, each removal followed by a re-tour. Every call returns, and
// leaves behind, exactly the cost reduction, tour, counters and trace span
// that Improve on the same tour would; the Pruner only skips sweeps it can
// prove make no move.
//
// The proof is a fixed-point certificate. When Improve stops because an
// iteration accepted no move, every 2-opt pair and Or-opt relocation its
// last sweeps evaluated was non-improving. Removing the item at position
// p (not the first or last, so the wrap edge stays put) keeps every other
// edge, in the same orientation and order, and adds one new edge joining
// p's neighbours. The only evaluations whose float64 inputs are new are
// the ones involving that edge; if none of those improves, the full
// Improve would make no move either, and the Pruner records what it would
// have recorded — one 2-opt and one Or-opt pass (none below 4 items) and
// the tsp/improve span with saved_m = 0 — without sweeping. Otherwise, or
// whenever a precondition fails, it runs the real Improve.
type Pruner struct {
	// Tour is the current tour. Change it only through the Pruner's
	// methods: the certificate is about this exact order.
	Tour Tour
	x    *Matrix
	m    Metric
	// fixed reports that Tour is a fixed point of Improve.
	fixed bool
}

// NewPruner returns a Pruner over t. The tour's items index x; with a nil
// x every re-tour is ImproveMetric over m and no sweep is skipped.
func NewPruner(t Tour, x *Matrix, m Metric) *Pruner {
	return &Pruner{Tour: t, x: x, m: m}
}

// Improve is Improve on the tour. On a tour already at a fixed point it
// records Improve's no-move sweep and returns 0.
func (p *Pruner) Improve(rec ...obs.Recorder) float64 {
	r := obs.First(rec...)
	if p.fixed {
		p.certified(r)
		return 0
	}
	return p.full(r)
}

// RemoveAt deletes the item at position pos, then re-tours as Improve
// would on the shortened tour, returning its cost reduction.
func (p *Pruner) RemoveAt(pos int, rec ...obs.Recorder) float64 {
	r := obs.First(rec...)
	n := p.Tour.Len()
	certify := p.fixed && pos > 0 && pos < n-1
	p.Tour.Order = append(p.Tour.Order[:pos], p.Tour.Order[pos+1:]...)
	if certify && !p.improvesAt(pos-1) {
		p.certified(r)
		return 0
	}
	p.fixed = false
	return p.full(r)
}

// RotateTo rotates the tour so item v comes first. A rotation moves the
// wrap the certificate depends on, so unless v already leads it is lost
// and the next re-tour runs the full Improve.
func (p *Pruner) RotateTo(v int) {
	if p.Tour.IndexOf(v) == 0 {
		return
	}
	p.Tour.RotateTo(v)
	p.fixed = false
}

// full runs the real Improve.
func (p *Pruner) full(r obs.Recorder) float64 {
	if p.x == nil {
		return ImproveMetric(&p.Tour, p.m, r)
	}
	saved, fixed := improve(&p.Tour, p.x, r)
	p.fixed = fixed
	return saved
}

// certified records what Improve records on a tour where it accepts no
// move: the span, one pass of each sweep, and the move counters the
// sweeps register without incrementing.
func (p *Pruner) certified(r obs.Recorder) {
	n := p.Tour.Len()
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", n))
	if n >= 4 {
		r.Counter(CounterTwoOptPasses).Inc()
		r.Counter(CounterTwoOptMoves)
		r.Counter(CounterOrOptPasses).Inc()
		r.Counter(CounterOrOptMoves)
	}
	end(trace.Num("saved_m", 0))
}

// improvesAt reports whether a full 2-opt sweep or Or-opt round on the
// tour finds an improving move among the evaluations that involve edge q,
// (Order[q], Order[q+1]) with q+1 < n. Each evaluation uses twoOpt's and
// orOpt's own skip rules, expressions and thresholds.
func (p *Pruner) improvesAt(q int) bool {
	o, x := p.Tour.Order, p.x
	n := len(o)
	if n < 4 {
		return false // twoOpt and orOpt do not sweep
	}
	// 2-opt: the pairs with edge q as the row, then as the column.
	for j := q + 2; j < n; j++ {
		if twoOptImproves(o, x, q, j) {
			return true
		}
	}
	for i := 0; i+2 <= q; i++ {
		if twoOptImproves(o, x, i, q) {
			return true
		}
	}
	// Or-opt: a segment whose boundary span contains edge q is new and
	// meets every insertion edge; any other meets only edge q anew.
	for segLen := 1; segLen <= 3 && segLen < n-1; segLen++ {
		for i := 0; i+segLen <= n; i++ {
			prev := o[(i-1+n)%n]
			segStart := o[i]
			segEnd := o[i+segLen-1]
			next := o[(i+segLen)%n]
			if prev == segEnd || next == segStart {
				continue
			}
			removeGain := x.at(prev, segStart) + x.at(segEnd, next) - x.at(prev, next)
			if removeGain <= 1e-12 {
				continue
			}
			lo, hi := q, q+1
			if q >= i-1 && q <= i+segLen-1 {
				lo, hi = 0, n
			}
			for j := lo; j < hi; j++ {
				if j >= i-1 && j <= i+segLen-1 {
					continue
				}
				if i == 0 && j == n-1 {
					continue
				}
				a := o[j]
				b := o[(j+1)%n]
				insCost := x.at(a, segStart) + x.at(segEnd, b) - x.at(a, b)
				if insCost < removeGain-1e-12 {
					return true
				}
			}
		}
	}
	return false
}

// twoOptImproves evaluates twoOpt's pair (i, j) on the unchanged order o.
func twoOptImproves(o []int, x *Matrix, i, j int) bool {
	n := len(o)
	if i == 0 && j == n-1 {
		return false
	}
	a, b := o[i], o[i+1]
	c, d := o[j], o[(j+1)%n]
	delta := x.at(a, c) + x.at(b, d) - x.at(a, b) - x.at(c, d)
	return delta < -1e-12
}
