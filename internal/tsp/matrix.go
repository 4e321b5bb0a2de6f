package tsp

import "math"

// Matrix is a dense cost table over the items 0..n-1, the one form the
// local search (fixedPoint's 2-opt and Or-opt passes) runs on. Every
// entry is the exact float64 the source Metric returns, so replacing a
// metric by its matrix is output-invariant bit for bit; the payoff is
// that the sweeps read one array element per distance instead of calling
// a closure. The full n×n table is filled. Memory is 8·n² bytes.
//
// The polish assumes the table is symmetric bit for bit, which Symmetric
// checks: 2-opt prices a reversal by its two new and two old edges alone
// (ac + bd − ab − cd), so on an asymmetric table the reversed segment's
// inner edges change cost unseen and the search need not end.
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

// Len returns the number of items the matrix covers.
func (x *Matrix) Len() int { return x.n }

// Symmetric reports whether every entry (i, j) equals (j, i) bit for bit.
func (x *Matrix) Symmetric() bool {
	for i := 0; i < x.n; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(x.at(i, j)) != math.Float64bits(x.at(j, i)) {
				return false
			}
		}
	}
	return true
}

func (x *Matrix) at(i, j int) float64 { return x.d[i*x.n+j] }

// row returns the costs from item i.
func (x *Matrix) row(i int) []float64 { return x.d[i*x.n : (i+1)*x.n] }

// Metric returns the matrix as a Metric, for the algorithms that take one
// (Christofides, insertion pricing, Tour.Cost).
func (x *Matrix) Metric() Metric {
	n, d := x.n, x.d
	return func(i, j int) float64 { return d[i*n+j] }
}
