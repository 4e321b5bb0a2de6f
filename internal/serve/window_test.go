package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"uavdc/internal/oplog"
)

// TestWindowStatsDeltas drives manual samples around a known request mix
// and checks the windowed deltas, ratios, and quantile ordering.
func TestWindowStatsDeltas(t *testing.T) {
	s := New(Config{planFn: stubPlanner})
	defer s.Close(context.Background())
	ctx := context.Background()

	s.Sample() // baseline
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(2))
	s.Sample()

	st := s.WindowStats(time.Minute)
	if st.Schema != WindowSchema {
		t.Fatalf("schema %q", st.Schema)
	}
	if st.Samples != 2 {
		t.Fatalf("samples = %d, want 2", st.Samples)
	}
	// One interval retained → the covered window is one nominal second.
	if st.WindowS != 1 {
		t.Errorf("window_s = %g, want 1", st.WindowS)
	}
	if st.Requests != 4 || st.Hits != 2 || st.Misses != 2 || st.Rejected != 0 {
		t.Errorf("deltas = %+v", st)
	}
	if st.HitRatio != 0.5 || st.RejectionRate != 0 {
		t.Errorf("ratios = %g/%g, want 0.5/0", st.HitRatio, st.RejectionRate)
	}
	if st.LatencyP50Ms < 0 || st.LatencyP90Ms < st.LatencyP50Ms || st.LatencyP99Ms < st.LatencyP90Ms {
		t.Errorf("quantiles out of order: %g/%g/%g", st.LatencyP50Ms, st.LatencyP90Ms, st.LatencyP99Ms)
	}
	if n := s.Snapshot().Counters[CounterWindowSamples]; n != 2 {
		t.Errorf("serve.window.samples = %d, want 2", n)
	}
	// The sample refreshed the queue-depth gauge.
	if g, ok := s.Snapshot().Gauges[GaugeQueueDepth]; !ok || g != 0 {
		t.Errorf("serve.queue_depth gauge = %d (present %v), want 0", g, ok)
	}

	// An empty or single-sample ring reports no window.
	fresh := New(Config{planFn: stubPlanner})
	defer fresh.Close(context.Background())
	if st := fresh.WindowStats(time.Minute); st.WindowS != 0 || st.Requests != 0 {
		t.Errorf("empty ring stats = %+v", st)
	}
}

// TestBackgroundSampler: a configured SampleInterval feeds the ring
// without manual Sample calls and stops with Close.
func TestBackgroundSampler(t *testing.T) {
	s := New(Config{SampleInterval: time.Millisecond, planFn: stubPlanner})
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Counters[CounterWindowSamples] < 3 {
		if time.Now().After(deadline) {
			t.Fatal("background sampler took no samples")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot().Counters[CounterWindowSamples]
	time.Sleep(5 * time.Millisecond)
	if got := s.Snapshot().Counters[CounterWindowSamples]; got != after {
		t.Errorf("sampler still running after Close: %d → %d", after, got)
	}
}

// wallNums normalizes wall-clock JSON number fields before golden
// comparison.
func normalizeFields(b []byte, fields ...string) []byte {
	for _, f := range fields {
		re := regexp.MustCompile(`("` + f + `":)[-0-9.eE+]+`)
		b = re.ReplaceAll(b, []byte(`${1}<wall>`))
	}
	return b
}

// TestGoldenHealthz locks the uavdc-health/1 wire format (uptime
// normalized).
func TestGoldenHealthz(t *testing.T) {
	s := New(Config{planFn: stubPlanner})
	defer s.Close(context.Background())
	s.Do(context.Background(), testRequest(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	goldenCompare(t, "healthz.golden", normalizeFields(body, "uptime_s"))
}

// TestGoldenWindow locks the uavdc-window/1 wire format (latency
// quantiles normalized; everything else is deterministic under manual
// sampling).
func TestGoldenWindow(t *testing.T) {
	s := New(Config{planFn: stubPlanner})
	defer s.Close(context.Background())
	ctx := context.Background()
	s.Sample()
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(1))
	s.Sample()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/window?s=60")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/window status %d", resp.StatusCode)
	}
	goldenCompare(t, "window.golden",
		normalizeFields(body, "latency_p50_ms", "latency_p90_ms", "latency_p99_ms"))

	resp, err = http.Get(ts.URL + "/debug/window?s=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?s= accepted: %d", resp.StatusCode)
	}

	// A span too long for a time.Duration reads the whole ring (two
	// intervals after a third sample), like any span past the ring's.
	s.Sample()
	resp, err = http.Get(ts.URL + "/debug/window?s=10000000000")
	if err != nil {
		t.Fatal(err)
	}
	var st WindowStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("?s=10000000000: status %d, decode %v", resp.StatusCode, err)
	}
	if st.Samples != 3 || st.WindowS != 2 {
		t.Errorf("?s=10000000000: window_s %v over %d samples, want the retained span 2 over 3", st.WindowS, st.Samples)
	}
}

// TestGoldenRuntime locks the uavdc-runtime/1 wire format: every value
// is machine-dependent, so all numbers are normalized and the golden
// pins the schema and field set.
func TestGoldenRuntime(t *testing.T) {
	s := New(Config{planFn: stubPlanner})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/runtime status %d", resp.StatusCode)
	}
	var rt RuntimeStats
	if err := json.Unmarshal(body, &rt); err != nil {
		t.Fatalf("runtime body not JSON: %v\n%s", err, body)
	}
	if rt.Schema != RuntimeSchema || rt.Goroutines <= 0 || rt.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime stats: %+v", rt)
	}
	goldenCompare(t, "runtime.golden", normalizeFields(body,
		"goroutines", "heap_alloc_bytes", "heap_sys_bytes", "heap_objects",
		"gc_runs", "gc_pause_total_ms", "last_gc_pause_ms", "next_gc_bytes"))
}

// TestDebugOplogEndpoint: /debug/oplog streams the ring as a
// uavdc-oplog/1 JSONL body and honours ?after= for incremental tailing.
func TestDebugOplogEndpoint(t *testing.T) {
	s := New(Config{planFn: stubPlanner})
	defer s.Close(context.Background())
	ctx := context.Background()
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(1))
	s.Do(ctx, testRequest(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/oplog")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hdr, recs, err := oplog.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("endpoint stream unreadable: %v\n%s", err, body)
	}
	if hdr.Schema != oplog.Schema || len(recs) != 3 {
		t.Fatalf("got %d records under %q, want 3 under %q", len(recs), hdr.Schema, oplog.Schema)
	}

	resp, err = http.Get(ts.URL + "/debug/oplog?after=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, recs, err = oplog.Read(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("?after=2 returned %+v, want only seq 3", recs)
	}

	resp, err = http.Get(ts.URL + "/debug/oplog?after=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative ?after= accepted: %d", resp.StatusCode)
	}
}
