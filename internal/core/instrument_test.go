package core

import (
	"testing"

	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// TestTracingDoesNotChangePlans: planning with a live trace buffer (detail
// on) must produce byte-identical plans to planning untraced, for every
// planner in the library.
func TestTracingDoesNotChangePlans(t *testing.T) {
	in := mediumInstance(t, 2, 1.2e4)
	for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}, &BenchmarkPlanner{}, &BenchmarkCoverage{}, &LNSPlanner{Rounds: 3}} {
		bare, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		buf := trace.NewBuffer()
		buf.SetDetail(true)
		instr := *in
		instr.Obs = trace.With(obs.NewRegistry(), buf)
		traced, err := pl.Plan(&instr)
		if err != nil {
			t.Fatalf("%s traced: %v", pl.Name(), err)
		}
		assertPlansIdentical(t, pl.Name(), bare, traced)
		if buf.Len() == 0 {
			t.Errorf("%s: no trace records emitted", pl.Name())
		}
	}
}

// TestInstrumentationDoesNotChangePlans: planning with a live Registry
// must produce byte-identical plans to planning uninstrumented.
func TestInstrumentationDoesNotChangePlans(t *testing.T) {
	in := mediumInstance(t, 2, 1.2e4)
	for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}, &BenchmarkPlanner{}, &BenchmarkCoverage{}, &LNSPlanner{Rounds: 3}} {
		bare, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		instr := *in
		instr.Obs = obs.NewRegistry()
		traced, err := pl.Plan(&instr)
		if err != nil {
			t.Fatalf("%s instrumented: %v", pl.Name(), err)
		}
		assertPlansIdentical(t, pl.Name(), bare, traced)
	}
}

// assertPlansIdentical fails unless a and b are the same plan, stop for
// stop and collection for collection.
func assertPlansIdentical(t *testing.T, name string, a, b *Plan) {
	t.Helper()
	if a.Collected() != b.Collected() {
		t.Fatalf("%s: volume %v != %v", name, a.Collected(), b.Collected())
	}
	if len(a.Stops) != len(b.Stops) {
		t.Fatalf("%s: stops %d != %d", name, len(a.Stops), len(b.Stops))
	}
	for i := range a.Stops {
		if a.Stops[i].Pos != b.Stops[i].Pos || a.Stops[i].Sojourn != b.Stops[i].Sojourn {
			t.Fatalf("%s: stop %d differs: %+v vs %+v", name, i, a.Stops[i], b.Stops[i])
		}
		if len(a.Stops[i].Collected) != len(b.Stops[i].Collected) {
			t.Fatalf("%s: stop %d collections differ", name, i)
		}
		for j := range a.Stops[i].Collected {
			if a.Stops[i].Collected[j] != b.Stops[i].Collected[j] {
				t.Fatalf("%s: stop %d collection %d differs", name, i, j)
			}
		}
	}
}
