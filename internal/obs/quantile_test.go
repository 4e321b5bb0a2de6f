package obs

import (
	"strings"
	"testing"
)

// histFrom builds a HistStat by observing vals into a fresh registry
// histogram with the given boundaries.
func histFrom(t *testing.T, buckets []float64, vals ...float64) HistStat {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("exec.energy_deviation_hist", buckets)
	for _, v := range vals {
		h.Observe(v)
	}
	return r.Snapshot().Hists["exec.energy_deviation_hist"]
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := histFrom(t, []float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
	var zero HistStat
	if got := zero.Quantile(0.5); got != 0 {
		t.Errorf("zero-value HistStat Quantile(0.5) = %g, want 0", got)
	}
}

func TestQuantileAllInOverflowBucket(t *testing.T) {
	h := histFrom(t, []float64{1, 2}, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("all-overflow Quantile(%g) = %g, want largest boundary 2", q, got)
		}
	}
}

func TestQuantileNoFiniteBucketsReturnsMean(t *testing.T) {
	h := histFrom(t, nil, 2, 4)
	for _, q := range []float64{0.5, 0.99} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("bucketless Quantile(%g) = %g, want mean 3", q, got)
		}
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := histFrom(t, []float64{1, 2, 4}, 1.5)
	// The one observation lands in the (1, 2] bucket; the estimator
	// interpolates inside that bucket's boundaries regardless of q.
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("single-observation p50 = %g, want 1.5", got)
	}
	if got := h.Quantile(0.99); got != 1.99 {
		t.Errorf("single-observation p99 = %g, want 1.99", got)
	}
	// Re-running the estimate must be bit-identical: pure function of counts.
	if h.Quantile(0.99) != h.Quantile(0.99) {
		t.Error("Quantile is not deterministic across calls")
	}
}

func TestQuantileClampsRange(t *testing.T) {
	h := histFrom(t, []float64{1, 2, 4}, 0.5, 1.5, 3)
	if got, want := h.Quantile(-1), h.Quantile(0); got != want {
		t.Errorf("Quantile(-1) = %g, want Quantile(0) = %g", got, want)
	}
	if got, want := h.Quantile(2), h.Quantile(1); got != want {
		t.Errorf("Quantile(2) = %g, want Quantile(1) = %g", got, want)
	}
}

func TestHistStatSub(t *testing.T) {
	old := histFrom(t, []float64{1, 2}, 0.5, 1.5)
	cur := histFrom(t, []float64{1, 2}, 0.5, 1.5, 1.7, 5)
	d := cur.Sub(old)
	if d.Count != 2 {
		t.Fatalf("delta Count = %d, want 2", d.Count)
	}
	if got, want := d.Counts[1], int64(1); got != want {
		t.Errorf("delta (1,2] bucket = %d, want %d", got, want)
	}
	if got, want := d.Counts[2], int64(1); got != want {
		t.Errorf("delta overflow bucket = %d, want %d", got, want)
	}
	// Subtracting a zero-value prior (no earlier sample) is the identity.
	id := cur.Sub(HistStat{})
	if id.Count != cur.Count || id.Sum != cur.Sum {
		t.Errorf("Sub(zero) changed totals: %+v vs %+v", id, cur)
	}
	// Sub must not alias the receiver's slices.
	d.Counts[0] = 99
	if cur.Counts[0] == 99 {
		t.Error("Sub aliases the receiver's Counts slice")
	}
}

func TestRegistryGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("serve.queue_depth")
	g.Set(5)
	g.Add(-2)
	if got := r.Snapshot().Gauges["serve.queue_depth"]; got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	// Handles are stable: same name, same cell.
	r.Gauge("serve.queue_depth").Add(1)
	if got := r.Snapshot().Gauges["serve.queue_depth"]; got != 4 {
		t.Fatalf("gauge after second handle = %d, want 4", got)
	}

	// Gauges are excluded from determinism comparisons.
	a, b := NewRegistry(), NewRegistry()
	a.Counter("serve.requests").Inc()
	b.Counter("serve.requests").Inc()
	a.Gauge("serve.queue_depth").Set(7)
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Error("snapshots with differing gauges compare unequal; gauges must be excluded like timers")
	}
	if diff := a.Snapshot().Diff(b.Snapshot()); diff != "" {
		t.Errorf("Diff reported gauge movement: %q", diff)
	}

	// Discard's gauge handle is a safe no-op.
	Discard.Gauge("serve.queue_depth").Set(1)
	Discard.Gauge("serve.queue_depth").Add(1)
}

func TestWriteToRendersGaugesLast(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(2)
	r.Histogram("serve.latency.seconds", []float64{1}).Observe(0.5)
	r.Gauge("serve.queue_depth").Set(3)
	var sb strings.Builder
	if _, err := r.Snapshot().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), sb.String())
	}
	if lines[0] != "serve.requests 2" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "serve.latency.seconds ") {
		t.Errorf("line 1 = %q, want histogram", lines[1])
	}
	if lines[2] != "serve.queue_depth 3" {
		t.Errorf("line 2 = %q, want gauge last", lines[2])
	}
}
