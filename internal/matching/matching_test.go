package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteMinPerfect finds the optimal perfect matching cost by exhaustive
// pairing (n ≤ 12).
func bruteMinPerfect(cost [][]float64) float64 {
	n := len(cost)
	used := make([]bool, n)
	var rec func() float64
	rec = func() float64 {
		first := -1
		for i := 0; i < n; i++ {
			if !used[i] {
				first = i
				break
			}
		}
		if first < 0 {
			return 0
		}
		used[first] = true
		best := math.Inf(1)
		for j := first + 1; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			if c := cost[first][j] + rec(); c < best {
				best = c
			}
			used[j] = false
		}
		used[first] = false
		return best
	}
	return rec()
}

func randomCost(n int, seed int64, euclidean bool) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	if euclidean {
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{rng.Float64() * 1000, rng.Float64() * 1000}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1])
				cost[i][j], cost[j][i] = d, d
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := rng.Float64() * 100
				cost[i][j], cost[j][i] = c, c
			}
		}
	}
	return cost
}

// flat returns cost's order and a function reading its entries, the
// form the solvers take.
func flat(cost [][]float64) (int, func(i, j int) float64) {
	return len(cost), func(i, j int) float64 { return cost[i][j] }
}

// rowMajor returns the cost function over the n×n row-major entries c.
func rowMajor(n int, c []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return c[i*n+j] }
}

func TestMinWeightPerfectTrivial(t *testing.T) {
	if mate, total, err := MinWeightPerfect(0, nil); mate != nil || total != 0 || err != nil {
		t.Errorf("empty: %v %v %v", mate, total, err)
	}
	cost := [][]float64{{0, 5}, {5, 0}}
	mate, total, err := MinWeightPerfect(flat(cost))
	if err != nil || total != 5 || mate[0] != 1 || mate[1] != 0 {
		t.Errorf("pair: %v %v %v", mate, total, err)
	}
}

func TestMinWeightPerfectOddFails(t *testing.T) {
	cost := [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	if _, _, err := MinWeightPerfect(flat(cost)); err == nil {
		t.Error("odd n should fail")
	}
}

func TestMinWeightPerfectBadInput(t *testing.T) {
	if _, _, err := MinWeightPerfect(2, rowMajor(2, []float64{0, -1, -1, 0})); err == nil {
		t.Error("negative cost should fail")
	}
	if _, _, err := MinWeightPerfect(2, rowMajor(2, []float64{0, math.NaN(), math.NaN(), 0})); err == nil {
		t.Error("NaN cost should fail")
	}
	if _, _, err := MinWeightPerfect(2, rowMajor(2, []float64{0, math.Inf(1), math.Inf(1), 0})); err == nil {
		t.Error("infinite cost should fail")
	}
	if _, _, err := MinWeightPerfect(-2, nil); err == nil {
		t.Error("negative order should fail")
	}
	if _, _, err := GreedyPerfect(-2, nil); err == nil {
		t.Error("negative order should fail")
	}
	// The diagonal is never read: a NaN there is no error.
	diag := rowMajor(4, []float64{math.NaN(), 1, 2, 3, 1, math.NaN(), 3, 2, 2, 3, math.NaN(), 1, 3, 2, 1, math.NaN()})
	if mate, total, err := MinWeightPerfect(4, diag); err != nil || total != 2 || mate[0] != 1 {
		t.Errorf("NaN diagonal: %v %v %v", mate, total, err)
	}
}

func TestMinWeightPerfectKnown(t *testing.T) {
	// 4 vertices: optimum pairs (0,1) and (2,3) with cost 1 + 1 = 2.
	cost := [][]float64{
		{0, 1, 10, 10},
		{1, 0, 10, 10},
		{10, 10, 0, 1},
		{10, 10, 1, 0},
	}
	_, total, err := MinWeightPerfect(flat(cost))
	if err != nil || math.Abs(total-2) > 1e-6 {
		t.Errorf("total = %v, err = %v", total, err)
	}
	// Force the crossing solution to be optimal instead.
	cost[0][1], cost[1][0] = 10, 10
	cost[2][3], cost[3][2] = 10, 10
	cost[0][2], cost[2][0] = 1, 1
	cost[1][3], cost[3][1] = 2, 2
	_, total, err = MinWeightPerfect(flat(cost))
	if err != nil || math.Abs(total-3) > 1e-6 {
		t.Errorf("total = %v, err = %v", total, err)
	}
}

func TestMinWeightPerfectVsBruteForce(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		for seed := int64(0); seed < 8; seed++ {
			for _, euclid := range []bool{true, false} {
				cost := randomCost(n, seed*31+int64(n), euclid)
				mate, total, err := MinWeightPerfect(flat(cost))
				if err != nil {
					t.Fatalf("n=%d seed=%d: %v", n, seed, err)
				}
				verifyPerfect(t, mate, n)
				want := bruteMinPerfect(cost)
				if math.Abs(total-want) > 1e-4*(1+want) {
					t.Errorf("n=%d seed=%d euclid=%v: blossom %v, brute %v", n, seed, euclid, total, want)
				}
			}
		}
	}
}

func TestMinWeightPerfectZeroCosts(t *testing.T) {
	// All-zero costs: any perfect matching is optimal with cost 0.
	n := 6
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	mate, total, err := MinWeightPerfect(flat(cost))
	if err != nil || total != 0 {
		t.Fatalf("zero: %v %v", total, err)
	}
	verifyPerfect(t, mate, n)
}

func TestMinWeightPerfectLargerLocalOpt(t *testing.T) {
	// No brute-force oracle at n=40; verify perfection and pairwise local
	// optimality (no improving 2-swap), a necessary optimality condition.
	cost := randomCost(40, 77, true)
	mate, total, err := MinWeightPerfect(flat(cost))
	if err != nil {
		t.Fatal(err)
	}
	verifyPerfect(t, mate, 40)
	checkTotal(t, cost, mate, total)
	for a := 0; a < 40; a++ {
		b := mate[a]
		if b < a {
			continue
		}
		for c := a + 1; c < 40; c++ {
			d := mate[c]
			if d < c || c == b {
				continue
			}
			cur := cost[a][b] + cost[c][d]
			if cost[a][c]+cost[b][d] < cur-1e-6 || cost[a][d]+cost[b][c] < cur-1e-6 {
				t.Fatalf("improving 2-swap exists on pairs (%d,%d),(%d,%d)", a, b, c, d)
			}
		}
	}
}

func TestGreedyPerfect(t *testing.T) {
	cost := randomCost(20, 5, true)
	mate, total, err := GreedyPerfect(flat(cost))
	if err != nil {
		t.Fatal(err)
	}
	verifyPerfect(t, mate, 20)
	checkTotal(t, cost, mate, total)
	// Greedy can't beat exact.
	_, opt, err := MinWeightPerfect(flat(cost))
	if err != nil {
		t.Fatal(err)
	}
	if total < opt-1e-6 {
		t.Errorf("greedy %v beat exact %v", total, opt)
	}
	if _, _, err := GreedyPerfect(flat(randomCost(5, 1, false))); err == nil {
		t.Error("odd n should fail")
	}
	if m, tot, err := GreedyPerfect(0, nil); m != nil || tot != 0 || err != nil {
		t.Error("empty greedy should be trivial")
	}
}

func TestPerfectAuto(t *testing.T) {
	cost := randomCost(10, 2, true)
	mate, _, exact, err := PerfectAuto(flat(cost))
	if err != nil || !exact {
		t.Fatalf("small input should use exact: exact=%v err=%v", exact, err)
	}
	verifyPerfect(t, mate, 10)
}

func TestMinWeightPerfectHugeCostsScale(t *testing.T) {
	// Costs near 1e12 must not overflow the fixed-point conversion.
	cost := [][]float64{
		{0, 1e12, 3e12, 4e12},
		{1e12, 0, 5e12, 6e12},
		{3e12, 5e12, 0, 2e12},
		{4e12, 6e12, 2e12, 0},
	}
	_, total, err := MinWeightPerfect(flat(cost))
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMinPerfect(cost)
	if math.Abs(total-want) > 1e-3*want {
		t.Errorf("total = %v, want %v", total, want)
	}
}

func verifyPerfect(t *testing.T, mate []int, n int) {
	t.Helper()
	if len(mate) != n {
		t.Fatalf("mate length %d, want %d", len(mate), n)
	}
	for u, v := range mate {
		if v < 0 || v >= n || v == u {
			t.Fatalf("vertex %d has invalid mate %d", u, v)
		}
		if mate[v] != u {
			t.Fatalf("asymmetric mates: %d→%d but %d→%d", u, v, v, mate[v])
		}
	}
}

func checkTotal(t *testing.T, cost [][]float64, mate []int, total float64) {
	t.Helper()
	var sum float64
	for u, v := range mate {
		if u < v {
			sum += cost[u][v]
		}
	}
	if math.Abs(sum-total) > 1e-6*(1+sum) {
		t.Fatalf("reported total %v, recomputed %v", total, sum)
	}
}

func BenchmarkMinWeightPerfect100(b *testing.B) {
	n, cost := flat(randomCost(100, 9, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinWeightPerfect(n, cost); err != nil {
			b.Fatal(err)
		}
	}
}

// refWeights is MinWeightPerfect's float-to-integer weight conversion as it
// stood over a [][]float64 cost matrix, for the reference solver.
func refWeights(cost [][]float64) [][]int64 {
	n := len(cost)
	var maxC float64
	for i := range cost {
		for _, c := range cost[i] {
			if c > maxC {
				maxC = c
			}
		}
	}
	scale := float64(int64(1) << scaleBits)
	if maxC > 0 {
		for maxC*scale > 1e15 {
			scale /= 2
		}
	}
	ceilC := int64(maxC*scale) + 2
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			if i == j {
				continue
			}
			w[i][j] = 2 * (ceilC - int64(math.Round(cost[i][j]*scale)))
		}
	}
	return w
}

// assertSameMates runs the flat solver and the reference solver on cost
// and fails unless their mates are identical: through MinWeightPerfect
// (and so its weight conversion) at even n, and through the
// maximum-weight solvers alone at odd n, which has no perfect matching.
func assertSameMates(t *testing.T, name string, cost [][]float64) {
	t.Helper()
	n := len(cost)
	w := refWeights(cost)
	want := refMaxWeight(w)
	var got []int
	if n%2 == 0 {
		var err error
		if got, _, err = MinWeightPerfect(flat(cost)); err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
	} else {
		flatW := make([]int64, 0, n*n)
		for _, row := range w {
			flatW = append(flatW, row...)
		}
		got = maxWeight(n, flatW)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d: mates differ from the reference\n got %v\nwant %v", name, n, got, want)
	}
}

// matingSizes lists the orders the mate-identity oracle runs at: every
// order up to 64, then a spread up to 260 that includes the 194–230
// odd-vertex counts a paper-scale Christofides tour meets.
func matingSizes() []int {
	var ns []int
	for n := 2; n <= 64; n++ {
		ns = append(ns, n)
	}
	return append(ns, 97, 130, 163, 194, 211, 230, 260)
}

// TestFlatSolverMatchesReference holds the flat-table blossom solver to
// the [][]edgeUV solver it replaced (refblossom_test.go): identical mates
// on random Euclidean points, on integer grid points (many equal
// distances, so many tied duals), on all-zero costs, and on random
// integer weights where zero marks an absent edge.
func TestFlatSolverMatchesReference(t *testing.T) {
	for _, n := range matingSizes() {
		assertSameMates(t, "euclidean", randomCost(n, int64(n)*7+1, true))
	}
	for _, n := range matingSizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		side := 1 + int(math.Sqrt(float64(n)))
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{float64(rng.Intn(side)), float64(rng.Intn(side))}
		}
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1])
			}
		}
		assertSameMates(t, "grid", cost)
	}
	for n := 2; n <= 40; n++ {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
		}
		assertSameMates(t, "zero", cost)
	}
	for n := 2; n <= 40; n++ {
		rng := rand.New(rand.NewSource(int64(n) + 1000))
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
		}
		flatW := make([]int64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					continue // absent edge
				}
				x := 2 * int64(rng.Intn(8))
				w[i][j], w[j][i] = x, x
				flatW[i*n+j], flatW[j*n+i] = x, x
			}
		}
		if got, want := maxWeight(n, flatW), refMaxWeight(w); !slices.Equal(got, want) {
			t.Fatalf("sparse n=%d: mates differ\n got %v\nwant %v", n, got, want)
		}
	}
}
