package tsp

import "uavdc/internal/obs"

// Matrix is a dense cost table over the items 0..n-1, the one form the
// local search (Improve and its 2-opt and Or-opt passes) runs on. Every
// entry is the exact float64 the source Metric returns, so replacing a
// metric by its matrix is output-invariant bit for bit; the payoff is
// that the sweeps read one array element per distance instead of calling
// a closure. The full n×n table is filled — no symmetry assumption — so
// the matrix is exact even for metrics that are only symmetric up to
// rounding. Memory is 8·n² bytes; callers guard n.
type Matrix struct {
	n int
	d []float64
}

// NewMatrix materialises m over the items 0..n-1.
func NewMatrix(n int, m Metric) *Matrix {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			row[j] = m(i, j)
		}
	}
	return &Matrix{n: n, d: d}
}

func (x *Matrix) at(i, j int) float64 { return x.d[i*x.n+j] }

// Metric returns the matrix as a Metric, for the algorithms that take one
// (Christofides, insertion pricing, Tour.Cost).
func (x *Matrix) Metric() Metric {
	n, d := x.n, x.d
	return func(i, j int) float64 { return d[i*n+j] }
}

// ImproveMetric is Improve for callers that hold only a Metric. It runs
// Improve on a relabelled tour 0..t-1 over the matrix of m restricted to
// t's items, so every comparison sees the exact float64s m returns and the
// moves, the final order, the counters and the trace span are those of
// Improve on a matrix over all items. The submatrix costs 8·t² bytes per
// call.
func ImproveMetric(t *Tour, m Metric, rec ...obs.Recorder) float64 {
	items := append([]int(nil), t.Order...)
	x := NewMatrix(len(items), func(i, j int) float64 { return m(items[i], items[j]) })
	local := Tour{Order: make([]int, len(items))}
	for i := range local.Order {
		local.Order[i] = i
	}
	saved := Improve(&local, x, rec...)
	for i, li := range local.Order {
		t.Order[i] = items[li]
	}
	return saved
}
