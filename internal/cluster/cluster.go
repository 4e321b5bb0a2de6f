// Package cluster partitions sensor fields for multi-UAV planning. The
// paper plans for a single UAV and cites Mozaffari et al.'s
// cluster-then-route design for fleets as related work; this package
// provides the cluster step: deterministic weighted k-means (k-means++
// seeding) and a polar-sweep partitioner, both balancing the data volume
// each UAV must serve.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"uavdc/internal/geom"
	"uavdc/internal/rng"
)

// Assignment maps each point to a cluster in [0, K).
type Assignment struct {
	// K is the number of clusters.
	K int
	// Of[i] is the cluster of point i.
	Of []int
	// Centers are the cluster centroids (weighted).
	Centers []geom.Point
}

// Members returns the point indices of cluster c, ascending.
func (a *Assignment) Members(c int) []int {
	var out []int
	for i, ci := range a.Of {
		if ci == c {
			out = append(out, i)
		}
	}
	return out
}

// kmeansIters caps KMeans's Lloyd iterations.
const kmeansIters = 50

// KMeans clusters pts into k groups by weighted k-means with k-means++
// seeding, deterministic under src. Weights scale each point's pull on its
// centroid (use the stored data volume so heavy sensors attract a UAV);
// nil weights mean uniform. It runs at most kmeansIters Lloyd iterations.
func KMeans(pts []geom.Point, weights []float64, k int, src rng.Source) (*Assignment, error) {
	n := len(pts)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if n == 0 {
		return &Assignment{K: k, Centers: make([]geom.Point, k)}, nil
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("cluster: %d weights for %d points", len(weights), n)
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("cluster: invalid weight %v at %d", w, i)
		}
	}
	if k > n {
		k = n // every point its own cluster; extra clusters stay empty
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}

	// k-means++ seeding.
	r := src.Rand()
	centers := make([]geom.Point, 0, k)
	centers = append(centers, pts[r.Intn(n)])
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i, p := range pts {
			d2[i] = math.Inf(1)
			for _, c := range centers {
				if d := p.Dist2(c); d < d2[i] {
					d2[i] = d
				}
			}
			d2[i] *= math.Max(w(i), 1e-12)
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with centers; duplicate any.
			centers = append(centers, pts[0])
			continue
		}
		pick := r.Float64() * sum
		idx := 0
		for i, v := range d2 {
			pick -= v
			if pick <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, pts[idx])
	}

	assign := make([]int, n)
	for iter := 0; iter < kmeansIters; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := p.Dist2(ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Weighted centroid update.
		var sx, sy, sw = make([]float64, k), make([]float64, k), make([]float64, k)
		for i, p := range pts {
			c := assign[i]
			wi := math.Max(w(i), 1e-12)
			sx[c] += p.X * wi
			sy[c] += p.Y * wi
			sw[c] += wi
		}
		for c := range centers {
			if sw[c] > 0 {
				centers[c] = geom.Pt(sx[c]/sw[c], sy[c]/sw[c])
			}
		}
		if !changed {
			break
		}
	}
	// Pad centers back to the requested k when k was clamped.
	out := &Assignment{K: k, Of: assign, Centers: centers}
	return out, nil
}

// Sweep partitions points into k contiguous angular sectors around the
// pivot (typically the depot), balancing the total weight per sector — the
// classic sweep heuristic for multi-vehicle routing. Deterministic, O(n log n).
func Sweep(pts []geom.Point, weights []float64, k int, pivot geom.Point) (*Assignment, error) {
	n := len(pts)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("cluster: %d weights for %d points", len(weights), n)
	}
	a := &Assignment{K: k, Of: make([]int, n), Centers: make([]geom.Point, k)}
	if n == 0 {
		return a, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	angle := func(i int) float64 {
		p := pts[i]
		return math.Atan2(p.Y-pivot.Y, p.X-pivot.X)
	}
	sort.Slice(order, func(x, y int) bool { return angle(order[x]) < angle(order[y]) })

	var total float64
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	for i := 0; i < n; i++ {
		total += w(i)
	}
	perSector := total / float64(k)
	cur, acc := 0, 0.0
	for _, i := range order {
		if acc >= perSector*float64(cur+1) && cur < k-1 {
			cur++
		}
		a.Of[i] = cur
		acc += w(i)
	}
	// Centroids for reporting.
	var sx, sy, sw = make([]float64, k), make([]float64, k), make([]float64, k)
	for i, p := range pts {
		c := a.Of[i]
		wi := math.Max(w(i), 1e-12)
		sx[c] += p.X * wi
		sy[c] += p.Y * wi
		sw[c] += wi
	}
	for c := 0; c < k; c++ {
		if sw[c] > 0 {
			a.Centers[c] = geom.Pt(sx[c]/sw[c], sy[c]/sw[c])
		} else {
			a.Centers[c] = pivot
		}
	}
	return a, nil
}
