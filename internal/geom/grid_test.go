package geom

import (
	"testing"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(Square(100), 0); err == nil {
		t.Error("want error for delta = 0")
	}
	if _, err := NewGrid(Square(100), -5); err == nil {
		t.Error("want error for negative delta")
	}
	if _, err := NewGrid(Rect{}, 5); err == nil {
		t.Error("want error for degenerate region")
	}
}

func TestGridDimensions(t *testing.T) {
	cases := []struct {
		side  float64
		delta float64
		cols  int
	}{
		{1000, 5, 200},
		{1000, 10, 100},
		{1000, 30, 34}, // ceil(1000/30)
		{100, 100, 1},
		{100, 101, 1},
	}
	for _, tc := range cases {
		g, err := NewGrid(Square(tc.side), tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cols != tc.cols || g.Rows != tc.cols {
			t.Errorf("side=%v delta=%v: cols=%d rows=%d, want %d", tc.side, tc.delta, g.Cols, g.Rows, tc.cols)
		}
		if g.NumSquares() != tc.cols*tc.cols {
			t.Errorf("NumSquares = %d", g.NumSquares())
		}
	}
}

func TestGridCenter(t *testing.T) {
	g, _ := NewGrid(Square(100), 10)
	if got := g.Center(0); got != Pt(5, 5) {
		t.Errorf("Center(0) = %v", got)
	}
	// Square index 12 = row 1, col 2.
	if got := g.Center(12); got != Pt(25, 15) {
		t.Errorf("Center(12) = %v", got)
	}
}
