package tsp

import (
	"testing"
)

func TestMSTLowerBoundDegenerate(t *testing.T) {
	pts := randPts(3, 7)
	m := euclid(pts)
	if got, err := MSTLowerBound(nil, m); err != nil || got != 0 {
		t.Errorf("empty = %v, %v", got, err)
	}
	if got, err := MSTLowerBound([]int{1}, m); err != nil || got != 0 {
		t.Errorf("single = %v, %v", got, err)
	}
}
