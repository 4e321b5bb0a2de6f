package geom

import (
	"math"
	"sort"
)

// Index is a uniform-grid spatial index over a static set of points. It
// answers "which points lie within radius r of q" in time proportional to
// the number of grid cells the query disk touches plus the number of hits,
// instead of O(n) per query.
//
// Coverage-set construction for the hovering-location candidates is the hot
// path that motivates this structure: at paper scale (δ = 5 m, 1 km²,
// R0 = 50 m) there are 40 000 candidate squares, each needing the set of
// sensors within 50 m.
type Index struct {
	pts   []Point
	cell  float64
	min   Point
	cols  int
	rows  int
	start []int32 // CSR-style offsets into order, len cols*rows+1
	order []int32 // point ids grouped by cell
}

// NewIndex builds an index over pts. cellSize controls the bucket edge
// length; a good default is the typical query radius. If cellSize <= 0 a
// heuristic based on point density is used. The index keeps a reference to
// pts; the caller must not mutate the slice afterwards.
func NewIndex(pts []Point, cellSize float64) *Index {
	idx := &Index{pts: pts}
	if len(pts) == 0 {
		idx.cell = 1
		idx.cols, idx.rows = 1, 1
		idx.start = make([]int32, 2)
		return idx
	}
	min := pts[0]
	max := pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	if cellSize <= 0 {
		// Aim for ~1 point per cell on average.
		area := math.Max(max.X-min.X, 1) * math.Max(max.Y-min.Y, 1)
		cellSize = math.Sqrt(area / float64(len(pts)))
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	idx.cell = cellSize
	idx.min = min
	idx.cols = int((max.X-min.X)/cellSize) + 1
	idx.rows = int((max.Y-min.Y)/cellSize) + 1

	n := idx.cols * idx.rows
	counts := make([]int32, n+1)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		c := idx.cellIndex(p)
		cellOf[i] = int32(c)
		counts[c+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	idx.start = counts
	idx.order = make([]int32, len(pts))
	next := make([]int32, n)
	copy(next, counts[:n])
	for i := range pts {
		c := cellOf[i]
		idx.order[next[c]] = int32(i)
		next[c]++
	}
	return idx
}

func (idx *Index) cellIndex(p Point) int {
	col := clampInt(int((p.X-idx.min.X)/idx.cell), 0, idx.cols-1)
	row := clampInt(int((p.Y-idx.min.Y)/idx.cell), 0, idx.rows-1)
	return row*idx.cols + col
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.pts) }

// Within returns the ids of all points within radius r of q (boundary
// inclusive), in ascending id order. The result slice is freshly allocated.
func (idx *Index) Within(q Point, r float64) []int {
	return idx.WithinAppend(nil, q, r)
}

// WithinAppend is Within but appends into dst, which may be reused across
// calls to avoid allocation on hot paths.
func (idx *Index) WithinAppend(dst []int, q Point, r float64) []int {
	if len(idx.pts) == 0 || r < 0 {
		return dst
	}
	minCol := clampInt(int((q.X-r-idx.min.X)/idx.cell), 0, idx.cols-1)
	maxCol := clampInt(int((q.X+r-idx.min.X)/idx.cell), 0, idx.cols-1)
	minRow := clampInt(int((q.Y-r-idx.min.Y)/idx.cell), 0, idx.rows-1)
	maxRow := clampInt(int((q.Y+r-idx.min.Y)/idx.cell), 0, idx.rows-1)
	r2 := r*r + 1e-9
	base := len(dst)
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			c := row*idx.cols + col
			for _, id := range idx.order[idx.start[c]:idx.start[c+1]] {
				if idx.pts[id].Dist2(q) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	sort.Ints(dst[base:])
	return dst
}

// Nearest returns the id of the point closest to q and its distance.
// It returns (-1, +Inf) when the index is empty.
func (idx *Index) Nearest(q Point) (int, float64) {
	if len(idx.pts) == 0 {
		return -1, math.Inf(1)
	}
	// Expanding ring search over cells.
	qc := idx.cellIndex(q)
	qCol, qRow := qc%idx.cols, qc/idx.cols
	best := -1
	best2 := math.Inf(1)
	maxRing := idx.cols
	if idx.rows > maxRing {
		maxRing = idx.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a hit exists, stop when the ring's minimum possible
		// distance exceeds the best found.
		if best >= 0 {
			minPossible := (float64(ring) - 1) * idx.cell
			if minPossible > 0 && minPossible*minPossible > best2 {
				break
			}
		}
		for row := qRow - ring; row <= qRow+ring; row++ {
			if row < 0 || row >= idx.rows {
				continue
			}
			for col := qCol - ring; col <= qCol+ring; col++ {
				if col < 0 || col >= idx.cols {
					continue
				}
				// Only the ring boundary; the interior was scanned earlier.
				if ring > 0 && row != qRow-ring && row != qRow+ring && col != qCol-ring && col != qCol+ring {
					continue
				}
				c := row*idx.cols + col
				for _, id := range idx.order[idx.start[c]:idx.start[c+1]] {
					if d2 := idx.pts[id].Dist2(q); d2 < best2 {
						best2 = d2
						best = int(id)
					}
				}
			}
		}
	}
	return best, math.Sqrt(best2)
}
