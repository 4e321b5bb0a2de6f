package tsp

import "uavdc/internal/obs"

// Retour polishes a tour under a Metric and polishes it again after every
// edit: the baselines' re-tour after each removal, orienteering's polish,
// the greedy planners' re-tour after each acceptance and, through
// ImproveMetric, a one-shot polish. It keeps a matrix over slots and the
// tour's last fixed point over it, so the re-tour after an edit replays
// the search from there (see fixedPoint). A zero Retour gives each item a
// slot in order of first appearance, growing its matrix by one row and
// column per new item; one from NewRetour reads the caller's matrix, whose
// items are its slots. The search reads only matrix values and positions,
// never labels, so any consistent labelling makes the same moves: every
// call returns, and leaves behind, exactly the reduction, tour, counters
// and trace span of a fresh search on a matrix over all items. A Retour
// serves one tour under one metric.
type Retour struct {
	x     Matrix // x.n is the capacity in slots
	label []int  // slot → item
	slot  []int32
	local Tour
	fp    fixedPoint
}

// NewRetour returns a Retour over the items of x, the slot of item v
// being v: it fills no entry and copies no matrix. An item past x's
// range gets a slot of its own, as in a zero Retour. x, and the Metric
// passed to Improve, must be symmetric bit for bit (see Matrix).
func NewRetour(x *Matrix) *Retour {
	rt := &Retour{x: *x, label: make([]int, x.n), slot: make([]int32, x.n)}
	for v := range rt.label {
		rt.label[v], rt.slot[v] = v, int32(v)
	}
	return rt
}

// ImproveMetric polishes t once under m: 2-opt to a fixed point, then up
// to two Or-opt rounds, until neither helps (bounded iterations),
// returning the total reduction. m must be symmetric bit for bit (see
// Matrix). It serves callers that hold only a Metric: refinement, the
// literal Eq. 13 pricing, and the reference path. It is a zero Retour's
// Improve whose matrix is sized to t up front, so the polish fills one
// 8·t² byte matrix and copies none; a tour polished after every edit
// keeps a Retour instead. An optional obs.Recorder counts both passes' sweeps and moves
// and receives the tsp/improve span.
func ImproveMetric(t *Tour, m Metric, rec ...obs.Recorder) float64 {
	n := len(t.Order)
	rt := Retour{x: Matrix{n: n, d: make([]float64, n*n)}}
	return rt.Improve(t, m, rec...)
}

// Improve polishes t under m, replaying the search from the last fixed
// point it reached.
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
