package experiments

import (
	"maps"
	"slices"
	"testing"
)

// assertTablesBitEqual compares the deterministic panels of two figure
// tables: series names and order, every point's x, volume, volume CI and
// instance count bit-for-bit, and the counter totals except the scan work
// ledger (candidate_evals, residual_recomputes, scan_skipped_drained,
// scan_reused_offers),
// which legitimately differs between the reference and fast scan paths.
// Runtime fields are wall clock and not compared.
func assertTablesBitEqual(t *testing.T, label string, ref, got *Table) {
	t.Helper()
	if len(got.Series) != len(ref.Series) {
		t.Fatalf("%s: %d series, reference %d", label, len(got.Series), len(ref.Series))
	}
	refCounters := map[string]int64{}
	gotCounters := map[string]int64{}
	for si := range ref.Series {
		rs, gs := ref.Series[si], got.Series[si]
		if gs.Name != rs.Name {
			t.Fatalf("%s: series[%d] = %q, reference %q", label, si, gs.Name, rs.Name)
		}
		if len(gs.Points) != len(rs.Points) {
			t.Fatalf("%s/%s: %d points, reference %d", label, rs.Name, len(gs.Points), len(rs.Points))
		}
		for pi := range rs.Points {
			rp, gp := rs.Points[pi], gs.Points[pi]
			if gp.X != rp.X || gp.Volume != rp.Volume || gp.VolumeCI != rp.VolumeCI || gp.N != rp.N { // exact compare: bit-identity is the parity contract
				t.Errorf("%s/%s[%d]: (x=%v vol=%v ci=%v n=%d), reference (x=%v vol=%v ci=%v n=%d)",
					label, rs.Name, pi, gp.X, gp.Volume, gp.VolumeCI, gp.N, rp.X, rp.Volume, rp.VolumeCI, rp.N)
			}
			for cname, n := range rp.Counters {
				refCounters[cname] += n
			}
			for cname, n := range gp.Counters {
				gotCounters[cname] += n
			}
		}
	}
	names := map[string]bool{}
	for cname := range refCounters {
		names[cname] = true
	}
	for cname := range gotCounters {
		names[cname] = true
	}
	for _, cname := range slices.Sorted(maps.Keys(names)) {
		if speedupWorkCounters[cname] {
			continue
		}
		if gotCounters[cname] != refCounters[cname] {
			t.Errorf("%s: counter %s = %d, reference %d", label, cname, gotCounters[cname], refCounters[cname])
		}
	}
}

// TestFastPathParityAcrossFigures is the tentpole differential harness:
// every figure driver, run on the fast scan path, must reproduce the
// reference scan path's volumes, instance counts, and behaviour counters
// bit-for-bit.
// This is what licenses shipping the fast path as the default: any
// exactness hole in the pruned scan, the cached insertion pricing, or the
// memoized matrices surfaces here as a diverging panel. `make ci` runs
// this race-enabled as the fastpath step.
func TestFastPathParityAcrossFigures(t *testing.T) {
	cfg := Tiny()
	cfg.Metrics = true
	for _, fig := range slices.Sorted(maps.Keys(Figures)) {
		t.Run(fig, func(t *testing.T) {
			refCfg := cfg
			refCfg.Reference = true
			ref, err := Run(fig, refCfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			got, err := Run(fig, cfg)
			if err != nil {
				t.Fatalf("fast run: %v", err)
			}
			assertTablesBitEqual(t, fig, ref, got)
		})
	}
}

// TestBenchSpeedupPanel runs the speedup generator on the tiny preset and
// checks its own invariants: bit-identical panels, the evals
// reconciliation, and a positive ledger on a figure whose planners use the
// pruned scan.
func TestBenchSpeedupPanel(t *testing.T) {
	rows, err := benchSpeedup("tiny", Tiny(), []string{"fig4", "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if !row.BitIdentical {
			t.Errorf("%s: deterministic panels diverged between reference and fast", row.Figure)
		}
		if row.Preset != "tiny" {
			t.Errorf("%s: preset %q, want tiny", row.Figure, row.Preset)
		}
		if row.FastEvals+row.SkippedEvals+row.ReusedEvals != row.ReferenceEvals {
			t.Errorf("%s: fast evals %d + skipped %d + reused %d != reference evals %d",
				row.Figure, row.FastEvals, row.SkippedEvals, row.ReusedEvals, row.ReferenceEvals)
		}
		if row.ReferenceEvals == 0 {
			t.Errorf("%s: reference run recorded no candidate evaluations", row.Figure)
		}
	}
}
