package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestReplanGolden locks ReplanResidual's plans bit for bit: for each
// residual state the golden lists every replanned stop's LocID with the
// exact float bits of its sojourn and of each collected amount. The states
// cover the full-drain ladder (K = 1), a deep partial ladder (K = 4), an
// excluded no-hover zone and a zero budget, each replanned mid-flight from
// a stop of a full Algorithm 3 plan. The fast and the reference path must
// both match the golden. A diff means the replanner's behaviour changed —
// which must be deliberate: regenerate with
//
//	go test ./internal/core -run TestReplanGolden -update
func TestReplanGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct {
		name    string
		seed    uint64
		k       int
		share   float64 // share of the battery left
		exclude bool
	}{
		{name: "k1", seed: 3, k: 1, share: 0.5},
		{name: "k4", seed: 3, k: 4, share: 0.5},
		{name: "exclude", seed: 5, k: 2, share: 0.6, exclude: true},
		{name: "zero-budget", seed: 3, k: 2, share: 0},
	} {
		in := mediumInstance(t, tc.seed, 2.5e4)
		full, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Stops) < 3 {
			t.Fatalf("%s: need a multi-stop plan, got %d stops", tc.name, len(full.Stops))
		}
		state := ResidualState{
			Pos:      full.Stops[1].Pos,
			Budget:   units.Joules(tc.share * in.Model.Capacity.F()),
			Residual: residualAfter(in, full, 2),
			K:        tc.k,
		}
		if tc.exclude {
			// A no-hover disc over the next stop the full plan would fly to.
			zone := full.Stops[2].Pos
			state.Exclude = func(p geom.Point) bool { return p.Dist(zone) < 60 }
		}
		fast, err := ReplanResidual(in, state)
		if err != nil {
			t.Fatal(err)
		}
		if tc.exclude {
			open := state
			open.Exclude = nil
			unzoned, err := ReplanResidual(in, open)
			if err != nil {
				t.Fatal(err)
			}
			if replanGoldenText(unzoned) == replanGoldenText(fast) {
				t.Fatalf("%s: the no-hover zone does not change the replan", tc.name)
			}
		}
		ref, err := ReplanResidual(referenceOf(in), state)
		if err != nil {
			t.Fatal(err)
		}
		got := replanGoldenText(fast)
		if refText := replanGoldenText(ref); refText != got {
			t.Errorf("%s: reference replan differs from fast replan:\n--- fast\n%s--- reference\n%s", tc.name, got, refText)
		}
		fmt.Fprintf(&sb, "== %s\n%s", tc.name, got)
	}
	checkGolden(t, "replan.golden", sb.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("plans drifted from golden.\n--- want (%s)\n%s--- got\n%s", path, want, got)
	}
}

// replanGoldenText renders a plan's stops as LocIDs plus the exact bits of
// every sojourn and collected amount (value in parentheses for reading).
func replanGoldenText(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stops %d\n", len(p.Stops))
	for _, s := range p.Stops {
		fmt.Fprintf(&sb, "loc %d sojourn %016x (%g)\n", s.LocID, math.Float64bits(s.Sojourn), s.Sojourn)
		for _, c := range s.Collected {
			fmt.Fprintf(&sb, "  sensor %d %016x (%g)\n", c.Sensor, math.Float64bits(c.Amount), c.Amount)
		}
	}
	return sb.String()
}
