package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uavdc"
)

// postPlan sends one request and returns the response with its body
// read.
func postPlan(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/plan", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHTTPPlanParityAndHeaders(t *testing.T) {
	s := New(Config{})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := testRequest(1)
	want := directBody(t, req)

	cold, coldBody := postPlan(t, ts.URL, req)
	if cold.StatusCode != 200 || cold.Header.Get("Uavdc-Cache") != "miss" {
		t.Fatalf("cold: status=%d cache=%q", cold.StatusCode, cold.Header.Get("Uavdc-Cache"))
	}
	warm, warmBody := postPlan(t, ts.URL, req)
	if warm.StatusCode != 200 || warm.Header.Get("Uavdc-Cache") != "hit" {
		t.Fatalf("warm: status=%d cache=%q", warm.StatusCode, warm.Header.Get("Uavdc-Cache"))
	}
	if !bytes.Equal(coldBody, want) || !bytes.Equal(warmBody, want) {
		t.Fatal("HTTP bodies differ from the direct plan")
	}
	if cold.Header.Get("Uavdc-Key") != warm.Header.Get("Uavdc-Key") || cold.Header.Get("Uavdc-Key") == "" {
		t.Fatal("Uavdc-Key header missing or unstable")
	}
	if cold.Header.Get("Uavdc-Elapsed-Us") == "" {
		t.Fatal("Uavdc-Elapsed-Us header missing")
	}
	if ct := cold.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestHTTPPlanRejections(t *testing.T) {
	s := New(Config{})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /plan: %d", resp.StatusCode)
	}

	valid, err := json.Marshal(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body string
		want int
	}{
		{"bad JSON", "{not json", http.StatusBadRequest},
		{"trailing value and junk", string(valid) + `{"not":"a request"} trailing junk`, http.StatusBadRequest},
		{"trailing junk", string(valid) + "x", http.StatusBadRequest},
		{"trailing close brace", string(valid) + "}", http.StatusBadRequest},
		{"trailing whitespace", string(valid) + " \t\r\n\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d (cache %q)", c.name, resp.StatusCode, c.want, resp.Header.Get("Uavdc-Cache"))
		}
		if c.want != http.StatusBadRequest {
			continue
		}
		if eb := decodeErrorBody(t, body); eb.Error.Code != ErrBadRequest {
			t.Fatalf("%s: code %q, want %q", c.name, eb.Error.Code, ErrBadRequest)
		}
	}
}

func TestHTTPDeadline(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Timeout: 20 * time.Millisecond,
		planFn: func(key string, r Request, tr *uavdc.Trace) ([]byte, error) {
			<-gate
			return []byte(key + "\n"), nil
		}})
	defer s.Close(context.Background())
	defer close(gate) // deferred after Close so the gate opens first and the drain can finish
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postPlan(t, ts.URL, testRequest(1))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, body); eb.Error.Code != ErrTimeout {
		t.Fatalf("code %q, want %q", eb.Error.Code, ErrTimeout)
	}
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	s := New(Config{})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postPlan(t, ts.URL, testRequest(1))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{"serve.requests 1", "serve.misses 1", "serve.queue_depth 0", "serve.latency.seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz body is not JSON: %v\n%s", err, body)
	}
	if h.Schema != HealthSchema || h.Status != "ok" || h.Draining {
		t.Fatalf("/healthz = %+v, want healthy %s body", h, HealthSchema)
	}
	if h.CacheLen != 1 || h.UptimeS <= 0 {
		t.Fatalf("/healthz cache/uptime = %+v", h)
	}
}

// TestTraceStreaming: every request streams a serve/request span, and a
// miss additionally streams the planner's phase spans.
func TestTraceStreaming(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{TraceWriter: &buf, StripTimes: true})
	defer s.Close(context.Background())
	req := testRequest(1)
	s.Do(context.Background(), req) // miss: request span + plan spans
	s.Do(context.Background(), req) // hit: request span only

	out := buf.String()
	if n := strings.Count(out, `"serve/request"`); n < 4 { // begin+end per request
		t.Fatalf("expected 2 serve/request spans (4 records), got %d mentions:\n%s", n, out)
	}
	if !strings.Contains(out, `"plan/alg3"`) {
		t.Fatalf("planner phase spans not streamed:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSONL trace line %q: %v", line, err)
		}
	}
}
