package core

import (
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
// at every worker count, because the fast path only skips candidates whose
// award is provably zero and substitutes arithmetic that produces the
// exact same float64s.

// referenceOf returns a copy of in that plans on the reference path.
func referenceOf(in *Instance) *Instance {
	ref := *in
	ref.Reference = true
	return &ref
}

// TestFastPathMatchesReferenceAlg2 runs Algorithm 2 both ways on several
// instances and worker counts and demands bit-equal plans.
func TestFastPathMatchesReferenceAlg2(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			in := mediumInstance(t, seed, capacity)
			in.Delta = 15
			ref, err := (&Algorithm2{}).Plan(referenceOf(in))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				fast, err := (&Algorithm2{Workers: workers}).Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, "algorithm2-fast", workers, ref, fast)
			}
		}
	}
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
			for _, workers := range []int{1, 2, 8} {
				fast, err := (&Algorithm3{Workers: workers}).Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, "algorithm3-fast", workers, ref, fast)
			}
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
		assertPlansIdentical(t, "lns-fast", 0, ref, fast)
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
		for _, workers := range []int{1, 2, 8} {
			st := state
			st.Workers = workers
			fast, err := ReplanResidual(in, st)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansIdentical(t, "replan-fast", workers, ref, fast)
		}
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
// (matrix, in-place pricing and the re-tour certificate) to the reference
// path (closure metric, tsp.Remove pricing, a full Improve after every
// removal): bit-equal plans and equal counters, on fields tight enough
// that hundreds of sensors are pruned.
func TestFastPathMatchesReferenceBenchmark(t *testing.T) {
	cases := []struct {
		seed    uint64
		sensors int
		budget  units.Joules
	}{
		{1, 120, 4e4},
		{2, 300, 6e4},
		{3, 320, 9e4},
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
			assertPlansIdentical(t, p.Name(), 0, ref, fast)
			if !refSnap.Equal(fastSnap) {
				t.Errorf("%s seed %d: counters diverge:\n%s", p.Name(), c.seed, refSnap.Diff(fastSnap))
			}
			t.Logf("%s seed %d, %d sensors: %d removals", p.Name(), c.seed, c.sensors, fastSnap.Counters[CounterBenchRemovals])
			if _, ok := p.(*BenchmarkPlanner); ok && c.sensors >= 300 {
				if removed := fastSnap.Counters[CounterBenchRemovals]; removed < 100 {
					t.Errorf("seed %d: only %d removals; the budget is not tight enough", c.seed, removed)
				}
			}
		}
	}
}

// TestSkippedEvalsReconcile is the accounting oracle for the pruned scan:
// per planner, the fast path's candidate evaluations plus its skipped
// (provably zero-award) candidates must equal the reference path's
// evaluations exactly. Any hole in the exactness argument shows up here as
// a candidate that was neither evaluated nor proven skippable.
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
		if ref[CounterScanSkippedDrained] != 0 {
			t.Errorf("%s: reference path recorded %d skips", name, ref[CounterScanSkippedDrained])
		}
		refEvals := ref[CounterCandidateEvals]
		fastEvals := fast[CounterCandidateEvals]
		skipped := fast[CounterScanSkippedDrained]
		if refEvals == 0 {
			t.Fatalf("%s: reference recorded no evaluations", name)
		}
		if fastEvals+skipped != refEvals {
			t.Errorf("%s: fast evals %d + skipped %d != reference evals %d",
				name, fastEvals, skipped, refEvals)
		}
		if skipped == 0 {
			t.Errorf("%s: fast path skipped nothing — pruning is inert on this instance", name)
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

// TestFastCountersDeterministicAcrossWorkers extends the PR4 oracle to the
// pruned scan: every counter, including the skip ledger, must be
// bit-identical at any worker count.
func TestFastCountersDeterministicAcrossWorkers(t *testing.T) {
	snapFor := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		in := mediumInstance(t, 9, 2e4)
		in.Delta = 12
		in.K = 3
		in.Obs = reg
		if _, err := (&Algorithm3{Workers: workers}).Plan(in); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	base := snapFor(1)
	if base.Counters[CounterScanSkippedDrained] == 0 {
		t.Fatal("serial fast run skipped nothing; instance too small to exercise pruning")
	}
	for _, w := range []int{2, 4, 8} {
		snap := snapFor(w)
		if !base.Equal(snap) {
			t.Errorf("counters diverge at workers=%d:\n%s", w, base.Diff(snap))
		}
	}
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

func BenchmarkAlg2Reference(b *testing.B) { benchAlg2(b, true) }
func BenchmarkAlg2Fast(b *testing.B)      { benchAlg2(b, false) }
