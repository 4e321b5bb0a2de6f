package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readBench parses a ledger document and checks its schema tag.
func readBench(r io.Reader) (*Bench, error) {
	var b Bench
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("parsing ledger: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("ledger schema %q, want %q", b.Schema, BenchSchema)
	}
	return &b, nil
}

// TestBenchLedgerConsistent checks the committed BENCH_LEDGER.json for
// internal consistency: every speedup row is bit-identical with a
// reconciled evals ledger, the serve panel's counters follow from its
// two-phase choreography, and the fault panel is present. Whether the
// ledger matches the code is `make benchparity`'s job, which regenerates
// it and diffs byte for byte.
func TestBenchLedgerConsistent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_LEDGER.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBench(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Figures) != len(ledgerFigures) {
		t.Errorf("ledger has %d figure panels, want %d", len(b.Figures), len(ledgerFigures))
	}
	if len(b.FaultScenarios) == 0 {
		t.Error("ledger has no fault-scenario panel")
	}
	if len(b.Speedup) != len(speedupFigures) {
		t.Errorf("speedup panel has %d rows, want %d", len(b.Speedup), len(speedupFigures))
	}
	for _, row := range b.Speedup {
		if !row.BitIdentical {
			t.Errorf("speedup/%s: deterministic panels diverged between reference and fast", row.Figure)
		}
		if row.FastEvals+row.SkippedEvals+row.ReusedEvals != row.ReferenceEvals {
			t.Errorf("speedup/%s: fast evals %d + skipped %d + reused %d != reference evals %d",
				row.Figure, row.FastEvals, row.SkippedEvals, row.ReusedEvals, row.ReferenceEvals)
		}
	}
	sv := b.Serve
	if sv == nil {
		t.Fatal("ledger has no serve panel")
	}
	if !sv.BitIdentical {
		t.Error("serve panel: served bodies diverged from direct plans")
	}
	if !sv.OpLogConsistent {
		t.Error("serve panel: op-log per-disposition counts diverged from the panel counters")
	}
	if got := sv.Hits + sv.Misses + sv.Coalesced + sv.Rejected; got != int64(sv.Requests) {
		t.Errorf("serve panel: dispositions sum to %d, want %d", got, sv.Requests)
	}
	if sv.Plans != sv.Misses || sv.Misses != int64(sv.Distinct) {
		t.Errorf("serve panel: plans=%d misses=%d, want both %d (one cold plan per distinct instance)",
			sv.Plans, sv.Misses, sv.Distinct)
	}
	if sv.Rejected != 0 {
		t.Errorf("serve panel: %d backpressure rejections", sv.Rejected)
	}
}
