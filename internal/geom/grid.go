package geom

import (
	"fmt"
	"math"
)

// Grid is the δ-square partition of a rectangular monitoring region
// (Section III-B of the paper). The region is divided into Cols × Rows
// squares of edge length Delta; the centre of each square is a candidate
// hovering location for the UAV.
//
// Squares are addressed either by (col, row) or by a single linear index
// idx = row*Cols + col.
type Grid struct {
	Region Rect
	Delta  float64
	Cols   int
	Rows   int
}

// NewGrid partitions region into squares of edge length delta.
// The last column/row may extend past the region boundary when the region's
// extent is not an exact multiple of delta, matching the paper's "partition
// into M equal squares" abstraction. delta must be positive and the region
// non-degenerate.
func NewGrid(region Rect, delta float64) (*Grid, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("geom: grid delta must be positive, got %v", delta)
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		return nil, fmt.Errorf("geom: degenerate region %v", region)
	}
	cols := int(math.Ceil(region.Width() / delta))
	rows := int(math.Ceil(region.Height() / delta))
	return &Grid{Region: region, Delta: delta, Cols: cols, Rows: rows}, nil
}

// NumSquares returns M, the total number of squares in the partition.
func (g *Grid) NumSquares() int { return g.Cols * g.Rows }

// Center returns the centre of square idx.
func (g *Grid) Center(idx int) Point {
	col, row := idx%g.Cols, idx/g.Cols
	return Point{
		X: g.Region.Min.X + (float64(col)+0.5)*g.Delta,
		Y: g.Region.Min.Y + (float64(row)+0.5)*g.Delta,
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
