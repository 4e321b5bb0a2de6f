package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uavdc/internal/trace"
)

// traceFigures are the drivers locked by the trace regression tests:
// between them they exercise every planner — fig3 runs Algorithm 1 and the
// benchmark, fig4/fig5 run Algorithms 2 and 3 (two K values) and the
// benchmark.
var traceFigures = []string{"fig3", "fig4", "fig5"}

// runTraced runs a figure driver at the Tiny configuration with a flight
// recorder attached and returns the stripped (timestamp-free) JSONL export.
func runTraced(t *testing.T, name string) []byte {
	t.Helper()
	cfg := Tiny()
	cfg.Trace = trace.NewBuffer()
	if _, err := Run(name, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Len() == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, cfg.Trace.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGoldenTraces locks the stripped trace stream of every figure driver
// at the Tiny configuration. A diff here means the *sequence of planner
// phases* changed — a different iteration count, candidate order, or solver
// choice — which must be deliberate: regenerate with
//
//	go test ./internal/experiments -run TestGoldenTraces -update
//
// and justify the new stream in the commit message.
func TestGoldenTraces(t *testing.T) {
	for _, name := range traceFigures {
		t.Run(name, func(t *testing.T) {
			got := runTraced(t, name)
			path := filepath.Join("testdata", "trace_"+name+".jsonl")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				// Line-level first divergence keeps the failure readable;
				// the streams run to thousands of lines.
				gl := strings.Split(string(got), "\n")
				wl := strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("trace drifted from golden at line %d:\n want %s\n got  %s", i+1, wl[i], gl[i])
					}
				}
				t.Fatalf("trace drifted from golden: %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}
