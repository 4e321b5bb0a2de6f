package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestGreedyGolden locks the ratio-greedy planners' plans bit for bit, in
// the format of TestReplanGolden: every stop's LocID with the exact float
// bits of its sojourn and of each collected amount. It covers Algorithm 2
// (incremental pricing, and the literal Christofides pricing of
// ExactRatioTSP on a small field) and Algorithm 3 at K = 2 and K = 4. The
// fast and the reference path must both match the golden, so a change
// both paths share — which FuzzFastMatchesReference cannot see — still
// shows here. Regenerate only for a deliberate behaviour change:
//
//	go test ./internal/core -run TestGreedyGolden -update
func TestGreedyGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct {
		name     string
		planner  Planner
		instance func() *Instance
	}{
		{"alg2-s1-e12k", &Algorithm2{}, func() *Instance { return mediumInstance(t, 1, 1.2e4) }},
		{"alg2-s1-e25k", &Algorithm2{}, func() *Instance { return mediumInstance(t, 1, 2.5e4) }},
		{"alg2-s4-e25k", &Algorithm2{}, func() *Instance { return mediumInstance(t, 4, 2.5e4) }},
		{"alg2-s9-e40k", &Algorithm2{}, func() *Instance { return mediumInstance(t, 9, 4e4) }},
		{"alg2-exact-s1", &Algorithm2{ExactRatioTSP: true}, func() *Instance { return oracleInstance(t, 1, 5e3) }},
		{"alg2-exact-s2", &Algorithm2{ExactRatioTSP: true}, func() *Instance { return oracleInstance(t, 2, 8e3) }},
		{"alg3-k2-s1", &Algorithm3{}, func() *Instance { return kInstance(mediumInstance(t, 1, 2.5e4), 2) }},
		{"alg3-k4-s4", &Algorithm3{}, func() *Instance { return kInstance(mediumInstance(t, 4, 2.5e4), 4) }},
	} {
		in := tc.instance()
		fast, err := tc.planner.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := tc.planner.Plan(referenceOf(in))
		if err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		got := replanGoldenText(fast)
		if refText := replanGoldenText(ref); refText != got {
			t.Errorf("%s: reference plan differs from fast plan:\n--- fast\n%s--- reference\n%s", tc.name, got, refText)
		}
		fmt.Fprintf(&sb, "== %s\n%s", tc.name, got)
	}
	checkGolden(t, "greedy.golden", sb.String())
}

// kInstance sets in's sojourn partition granularity.
func kInstance(in *Instance, k int) *Instance {
	in.K = k
	return in
}
