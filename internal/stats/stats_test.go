package stats

import (
	"math"
	"testing"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s.CI95() != 0 {
		t.Errorf("CI95 of empty = %v", s.CI95())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 || s.Median != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample std sqrt(32/7).
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Mean != 5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !feq(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !feq(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestMedianOdd(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Errorf("Median = %v", m)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCI95(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // alternating 0/1, std ≈ 0.5025
	}
	s := Summarize(xs)
	want := 1.96 * s.Std / 10
	if !feq(s.CI95(), want, 1e-12) {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("Mean wrong")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if str := s.String(); str == "" || len(str) < 10 {
		t.Errorf("String = %q", str)
	}
}
