package core

import (
	"fmt"
	"strings"
	"testing"

	"uavdc/internal/obs"
	"uavdc/internal/orienteering"
)

// TestAlgorithm1Golden locks Algorithm 1's plans bit for bit, in the
// format of TestReplanGolden. It covers a field of at most
// orienteering.ExactMax nodes, which the exact DP solves, and two
// paper-density fields whose budgets the full tour exceeds, so Solve runs
// GreedyRatio, TourSplit's window scan and LocalSearch on each.
// Regenerate only for a deliberate behaviour change:
//
//	go test ./internal/core -run TestAlgorithm1Golden -update
func TestAlgorithm1Golden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct {
		name  string
		exact bool
		in    *Instance
	}{
		{"exact-s1-e12k", true, mediumInstance(t, 1, 1.2e4)},
		{"paper-s1-300-e30k", false, paperDensityInstance(t, 1, 300, 3e4)},
		{"paper-s3-500-e50k", false, paperDensityInstance(t, 3, 500, 5e4)},
	} {
		set, err := tc.in.buildCandidates()
		if err != nil {
			t.Fatal(err)
		}
		nodes := len(disjointCandidates(set)) + 1
		reg := obs.NewRegistry()
		tc.in.Obs = reg
		plan, err := (&Algorithm1{}).Plan(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runs := reg.Snapshot().Counters
		if tc.exact {
			if nodes > orienteering.ExactMax || runs[orienteering.CounterExactRuns] != 1 {
				t.Fatalf("%s: %d nodes, %d exact runs; want the exact DP", tc.name, nodes, runs[orienteering.CounterExactRuns])
			}
		} else {
			for _, c := range []string{orienteering.CounterGreedyRuns, orienteering.CounterTourSplitRuns, orienteering.CounterLocalSearchRuns} {
				if runs[c] == 0 {
					t.Fatalf("%s: %s is zero", tc.name, c)
				}
			}
		}
		// A plan short of every node means the budget binds; for the
		// heuristics, the full tour exceeded it, so TourSplit scanned its
		// windows.
		if len(plan.Stops) >= nodes-1 {
			t.Fatalf("%s: %d stops of %d nodes; the budget is not tight", tc.name, len(plan.Stops), nodes)
		}
		fmt.Fprintf(&sb, "== %s\n%s", tc.name, replanGoldenText(plan))
	}
	checkGolden(t, "alg1.golden", sb.String())
}
