package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"uavdc"
)

// benchmarkSpec is the part of ../BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json at Tiny scale,
// untraced and traced, and checks that each prints exactly the metrics
// the spec names, with their units, and that nothing failed.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(w.Name+map[bool]string{false: "/e2e", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 7, window: 300 * time.Millisecond,
					traced: traced, scale: tinyScale(), log: logWriter{t}}
				res, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, spec names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, spec says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestSessionShutdown checks that a closed session leaves nothing
// behind: the listener refuses connections and the goroutine count
// returns to where it started.
func TestSessionShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	f := tinyScale().tiny
	reqs, err := buildRequests(f, f.scenarios(3, "shutdown", 2), planners)
	if err != nil {
		t.Fatal(err)
	}
	if err := planReferences(reqs); err != nil {
		t.Fatal(err)
	}
	s, err := openSession(sessionConfig{workers: 2, cacheSize: 4, clients: 2, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	ops, _, err := s.load(context.Background(), reqs, loadSpec{clients: 2, count: 20, next: func(c int) int { return c }})
	if err != nil {
		t.Fatal(err)
	}
	if n := failures(ops); n != 0 || len(ops) != 20 {
		t.Fatalf("%d ops, %d failed", len(ops), n)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if err := s.checkCounters(len(ops)); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
		_ = c.Close()
		t.Fatalf("listener %s still accepts connections", s.addr)
	}
	waitGoroutines(t, base)
}

// TestInterruptedRunStops cancels a long serving run mid-window, as
// SIGINT does, and checks that it returns the cancellation promptly and
// leaves no goroutine behind.
func TestInterruptedRunStops(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runWorkload(ctx, config{workload: "miss-churn", seed: 1, window: time.Minute,
			scale: tinyScale(), log: logWriter{t}})
		done <- err
	}()
	time.Sleep(500 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted run did not stop")
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits for connection goroutines, which exit
// asynchronously after their connection closes, to drain back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanLayersMatchesPlan checks that the layer-by-layer pipeline the
// traced runs time plans exactly what uavdc.Plan plans.
func TestPlanLayersMatchesPlan(t *testing.T) {
	f := tinyScale().tiny
	sc := f.scenarios(5, "pipeline", 1)[0]
	for _, alg := range planners {
		res, err := uavdc.Plan(sc, f.uav(), f.options(alg))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := planLayers(f, sc, alg, newLayerStats(), false)
		if err != nil {
			t.Fatal(err)
		}
		if got != res.CollectedMB {
			t.Errorf("%s: layers collected %v MB, uavdc.Plan %v MB", alg, got, res.CollectedMB)
		}
	}
}
