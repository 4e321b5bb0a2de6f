package core

import (
	"encoding/json"
	"math"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// These are the planner-level differential tests behind the fast-path
// parity contract (EXPERIMENTS.md): the spatial-index-pruned candidate
// scan, the cached-edge insertion pricing, and the memoized distance
// matrices must yield plans bit-identical to the retained reference scan,
// because the fast path only skips candidates whose
// award is provably zero and substitutes arithmetic that produces the
// exact same float64s.

// referenceOf returns a copy of in that plans on the reference path.
func referenceOf(in *Instance) *Instance {
	ref := *in
	ref.Reference = true
	return &ref
}

// TestFastPathMatchesReferenceAlg2 runs Algorithm 2 both ways on several
// instances, under the constant bandwidth and a radio model, and demands
// bit-equal plans. It also pins the fold: Algorithm 2 is Algorithm 3 at
// K = 1, so on each path the two plans must encode to the same bytes, the
// planner's name aside.
func TestFastPathMatchesReferenceAlg2(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			for _, in := range []*Instance{mediumInstance(t, seed, capacity), radioInstance(t, seed, capacity)} {
				in.Delta = 15
				in.K = 1
				ref, err := (&Algorithm2{}).Plan(referenceOf(in))
				if err != nil {
					t.Fatal(err)
				}
				fast, err := (&Algorithm2{}).Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, "algorithm2-fast", ref, fast)
				for _, alg2 := range []*Plan{ref, fast} {
					on := in
					if alg2 == ref {
						on = referenceOf(in)
					}
					alg3, err := (&Algorithm3{}).Plan(on)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := planBytes(t, alg2), planBytes(t, alg3); a != b {
						t.Fatalf("seed %d capacity %v reference=%v: Algorithm 2\n%s\nAlgorithm 3 at K = 1\n%s", seed, capacity, on.Reference, a, b)
					}
				}
			}
		}
	}
}

// planBytes is p's JSON encoding with the planner's name left out.
func planBytes(t *testing.T, p *Plan) string {
	t.Helper()
	q := *p
	q.Algorithm = ""
	b, err := json.Marshal(&q)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFastPathMatchesReferenceAlg3 does the same for Algorithm 3 across K
// values (K = 1 degenerates to full drains; larger K exercises in-place
// upgrades, whose scan must keep drained in-tour stops visible).
func TestFastPathMatchesReferenceAlg3(t *testing.T) {
	for _, seed := range []uint64{2, 7} {
		for _, k := range []int{1, 2, 4} {
			in := mediumInstance(t, seed, 2e4)
			in.Delta = 15
			in.K = k
			ref, err := (&Algorithm3{}).Plan(referenceOf(in))
			if err != nil {
				t.Fatal(err)
			}
			fast, err := (&Algorithm3{}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansIdentical(t, "algorithm3-fast", ref, fast)
		}
	}
}

// TestFastPathMatchesReferenceLNS covers the destroy/repair loop, whose
// rebuilt states seed residuals before the lazy scan index is built.
func TestFastPathMatchesReferenceLNS(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		in := mediumInstance(t, seed, 2e4)
		in.K = 3
		ref, err := (&LNSPlanner{Rounds: 5}).Plan(referenceOf(in))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := (&LNSPlanner{Rounds: 5}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansIdentical(t, "lns-fast", ref, fast)
	}
}

// TestFastPathMatchesReferenceReplan covers the open-path replanner,
// including the excluded-candidate accounting.
func TestFastPathMatchesReferenceReplan(t *testing.T) {
	for _, seed := range []uint64{3, 6} {
		in := mediumInstance(t, seed, 2e4)
		full, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Stops) < 3 {
			t.Fatalf("need a multi-stop plan, got %d", len(full.Stops))
		}
		banned := full.Stops[0].Pos
		state := ResidualState{
			Pos:      full.Stops[1].Pos,
			Budget:   in.Model.Capacity / 2,
			Residual: residualAfter(in, full, 2),
			K:        2,
			Exclude:  func(p geom.Point) bool { return p.Dist(banned) < 1e-9 },
		}
		ref, err := ReplanResidual(referenceOf(in), state)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ReplanResidual(in, state)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansIdentical(t, "replan-fast", ref, fast)
	}
}

// paperDensityInstance is a seeded field at the paper's density (500
// sensors per km²) with the given battery capacity.
func paperDensityInstance(t testing.TB, seed uint64, sensors int, capacity units.Joules) *Instance {
	t.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = sensors
	p.Side = 1000 * math.Sqrt(float64(sensors)/500)
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{Net: net, Model: energy.Default().WithCapacity(capacity), Delta: 10, K: 4}
}

// TestFastPathMatchesReferenceBenchmark holds both baselines' prune loops
// (matrix and the re-tour replay) to the reference path (closure metric,
// a fresh search after every removal): bit-equal plans and equal
// counters, on fields tight enough that hundreds of sensors are pruned,
// and on a field of 2,048 sensors, whose 2,049-node matrix the fast path
// builds as at any size, with a budget that prunes a few.
func TestFastPathMatchesReferenceBenchmark(t *testing.T) {
	cases := []struct {
		seed    uint64
		sensors int
		budget  units.Joules
		// minRemovals is the fewest removals the benchmark planner must
		// make, so the case exercises the prune loop.
		minRemovals int64
	}{
		{1, 120, 4e4, 0},
		{2, 300, 6e4, 100},
		{3, 320, 9e4, 100},
		{4, 2048, 1.798e6, 3},
	}
	for _, c := range cases {
		for _, p := range []Planner{&BenchmarkPlanner{}, &BenchmarkCoverage{}} {
			run := func(reference bool) (*Plan, obs.Snapshot) {
				reg := obs.NewRegistry()
				in := paperDensityInstance(t, c.seed, c.sensors, c.budget)
				in.Obs = reg
				in.Reference = reference
				plan, err := p.Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				return plan, reg.Snapshot()
			}
			ref, refSnap := run(true)
			fast, fastSnap := run(false)
			assertPlansIdentical(t, p.Name(), ref, fast)
			if !refSnap.Equal(fastSnap) {
				t.Errorf("%s seed %d: counters diverge:\n%s", p.Name(), c.seed, refSnap.Diff(fastSnap))
			}
			t.Logf("%s seed %d, %d sensors: %d removals", p.Name(), c.seed, c.sensors, fastSnap.Counters[CounterBenchRemovals])
			if _, ok := p.(*BenchmarkPlanner); ok {
				if removed := fastSnap.Counters[CounterBenchRemovals]; removed < c.minRemovals {
					t.Errorf("seed %d: only %d removals; the budget is not tight enough", c.seed, removed)
				}
			}
		}
	}
}

// TestSkippedEvalsReconcile is the accounting oracle for the pruned scan:
// per planner, the fast path's candidate evaluations plus its skipped
// (provably zero-award) candidates plus its reused offers must equal the
// reference path's evaluations exactly, and both paths must prune the
// same number of levels over budget. Any hole in the exactness argument
// shows up here as a candidate that was neither evaluated nor proven
// skippable or unchanged.
func TestSkippedEvalsReconcile(t *testing.T) {
	run := func(name string, plan func(reference bool, reg *obs.Registry) error) {
		t.Helper()
		refReg := obs.NewRegistry()
		if err := plan(true, refReg); err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		fastReg := obs.NewRegistry()
		if err := plan(false, fastReg); err != nil {
			t.Fatalf("%s fast: %v", name, err)
		}
		ref := refReg.Snapshot().Counters
		fast := fastReg.Snapshot().Counters
		if ref[CounterScanSkippedDrained] != 0 || ref[CounterScanReusedOffers] != 0 {
			t.Errorf("%s: reference path recorded %d skips and %d reused offers", name, ref[CounterScanSkippedDrained], ref[CounterScanReusedOffers])
		}
		refEvals := ref[CounterCandidateEvals]
		fastEvals := fast[CounterCandidateEvals]
		skipped := fast[CounterScanSkippedDrained]
		reused := fast[CounterScanReusedOffers]
		if refEvals == 0 {
			t.Fatalf("%s: reference recorded no evaluations", name)
		}
		if fastEvals+skipped+reused != refEvals {
			t.Errorf("%s: fast evals %d + skipped %d + reused %d != reference evals %d",
				name, fastEvals, skipped, reused, refEvals)
		}
		if got, want := fast[CounterPrunedOverBudget], ref[CounterPrunedOverBudget]; got != want {
			t.Errorf("%s: fast path pruned %d levels over budget, reference %d", name, got, want)
		}
		if skipped == 0 {
			t.Errorf("%s: fast path skipped nothing — pruning is inert on this instance", name)
		}
		if reused == 0 {
			t.Errorf("%s: fast path reused no offer — offers are inert on this instance", name)
		}
	}

	run("algorithm2", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.Obs = reg
		in.Reference = reference
		_, err := (&Algorithm2{}).Plan(in)
		return err
	})
	run("algorithm3", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.K = 3
		in.Obs = reg
		in.Reference = reference
		_, err := (&Algorithm3{}).Plan(in)
		return err
	})
	run("lns-with-base", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.K = 2
		in.Obs = reg
		in.Reference = reference
		_, err := (&LNSPlanner{Base: &Algorithm2{}, Rounds: 3}).Plan(in)
		return err
	})
	run("replan", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Obs = reg
		in.Reference = reference
		_, err := ReplanResidual(in, ResidualState{
			Pos:      in.Net.Depot,
			Budget:   in.Budget(),
			Residual: residualAfter(in, &Plan{}, 0),
			K:        2,
		})
		return err
	})
}

// Candidate-generation micro-benchmark: one full Algorithm 2 plan under
// the reference scan vs the pruned scan (make bench-micro).
func benchAlg2(b *testing.B, reference bool) {
	in := mediumInstance(b, 1, 3e4)
	in.Delta = 12
	in.Reference = reference
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Algorithm2{}).Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselinePlan is one PaperTight-size baseline plan: 500
// sensors on 1 km² at 1.5×10⁵ J, where the prune loop removes hundreds of
// sensors (make bench-micro).
func BenchmarkBaselinePlan(b *testing.B) {
	in := paperDensityInstance(b, 1, 500, 1.5e5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&BenchmarkPlanner{}).Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPaperScale is one planner's paper-scale plan: 500 sensors on
// 1 km² at 1.5×10⁵ J (PaperTight), δ = 10 m and K = 4 (make bench-micro).
func benchPaperScale(b *testing.B, p Planner) {
	in := paperDensityInstance(b, 1, 500, 1.5e5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg1PaperScale(b *testing.B) { benchPaperScale(b, &Algorithm1{}) }
func BenchmarkAlg2PaperScale(b *testing.B) { benchPaperScale(b, &Algorithm2{}) }
func BenchmarkAlg3PaperScale(b *testing.B) { benchPaperScale(b, &Algorithm3{}) }

func BenchmarkAlg2Reference(b *testing.B) { benchAlg2(b, true) }
func BenchmarkAlg2Fast(b *testing.B)      { benchAlg2(b, false) }
