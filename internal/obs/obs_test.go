package obs

import (
	"sort"
	"strings"
	"testing"
)

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	r.Counter("b").Inc()
	// Same name → same cell.
	r.Counter("a").Inc()

	snap := r.Snapshot()
	if snap.Counters["a"] != 6 {
		t.Errorf("a = %d, want 6", snap.Counters["a"])
	}
	if snap.Counters["b"] != 1 {
		t.Errorf("b = %d, want 1", snap.Counters["b"])
	}
	if names := snap.CounterNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestSnapshotEqualAndDiff(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(2)
	b.Counter("x").Add(2)
	sa, sb := a.Snapshot(), b.Snapshot()
	if !sa.Equal(sb) {
		t.Errorf("equal snapshots differ: %s", sa.Diff(sb))
	}
	b.Counter("x").Inc()
	b.Counter("y").Inc()
	sb = b.Snapshot()
	if sa.Equal(sb) {
		t.Error("unequal snapshots compare equal")
	}
	d := sa.Diff(sb)
	if !strings.Contains(d, "x: 2 != 3") || !strings.Contains(d, "y: 0 != 1") {
		t.Errorf("Diff = %q", d)
	}
}

func TestDiscardAndHelpers(t *testing.T) {
	// Discard must be callable from anywhere without effect.
	Discard.Counter("x").Inc()
	Discard.Counter("x").Add(5)

	if OrDiscard(nil) != Discard {
		t.Error("OrDiscard(nil) != Discard")
	}
	r := NewRegistry()
	if OrDiscard(r) != Recorder(r) {
		t.Error("OrDiscard(r) != r")
	}
	if First() != Discard || First(nil) != Discard {
		t.Error("First() should default to Discard")
	}
	if First(nil, r) != Recorder(r) {
		t.Error("First should return first non-nil recorder")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 1, 100}) // sorted + deduped internally
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	// Same name → same cell, boundaries of the first call win.
	r.Histogram("h", nil).Observe(2)

	st := r.Snapshot().Hists["h"]
	if want := []float64{1, 10, 100}; len(st.Buckets) != 3 || st.Buckets[0] != want[0] || st.Buckets[2] != want[2] {
		t.Fatalf("buckets = %v, want %v", st.Buckets, want)
	}
	// v ≤ bound buckets: {0.5, 1} ≤ 1; {5, 2} ≤ 10; {50} ≤ 100; {500} over.
	if want := []int64{2, 2, 1, 1}; len(st.Counts) != 4 ||
		st.Counts[0] != want[0] || st.Counts[1] != want[1] || st.Counts[2] != want[2] || st.Counts[3] != want[3] {
		t.Errorf("counts = %v, want %v", st.Counts, want)
	}
	if st.Count != 6 || st.Sum != 558.5 {
		t.Errorf("count/sum = %d/%g, want 6/558.5", st.Count, st.Sum)
	}
}

func TestHistogramEqual(t *testing.T) {
	// Deterministic histograms participate in Equal; WallSuffix ones do not.
	x, y := NewRegistry(), NewRegistry()
	x.Histogram("d", []float64{1}).Observe(0.5)
	y.Histogram("d", []float64{1}).Observe(2)
	if x.Snapshot().Equal(y.Snapshot()) {
		t.Error("diverging deterministic histograms compare equal")
	}
	x2, y2 := NewRegistry(), NewRegistry()
	x2.Histogram("w"+WallSuffix, []float64{1}).Observe(0.5)
	y2.Histogram("w"+WallSuffix, []float64{1}).Observe(2)
	if !x2.Snapshot().Equal(y2.Snapshot()) {
		t.Error("wall-clock histograms must be excluded from Equal")
	}
}

// TestSnapshotOrderingLock pins the diff-stability contract: every exported
// iteration order (CounterNames, HistNames, WriteTo) is sorted, so uavexp
// -metrics panels and the bench ledger are stable across runs.
func TestSnapshotOrderingLock(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
		r.Histogram(name+".h", []float64{1}).Observe(0.5)
	}
	snap := r.Snapshot()
	assertSorted := func(kind string, names []string) {
		t.Helper()
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s not sorted: %v", kind, names)
		}
		if len(names) != 3 {
			t.Errorf("%s has %d names, want 3", kind, len(names))
		}
	}
	assertSorted("CounterNames", snap.CounterNames())
	assertSorted("HistNames", snap.HistNames())

	var sb strings.Builder
	if _, err := snap.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("WriteTo rendered %d lines, want 6:\n%s", len(lines), sb.String())
	}
	// Counters, then histograms, each block sorted.
	want := []string{"alpha", "mid", "zeta", "alpha.h", "mid.h", "zeta.h"}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix+" ") {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}

func TestSnapshotWriteTo(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	var sb strings.Builder
	if _, err := r.Snapshot().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a 1\n") || !strings.Contains(out, "b 2\n") {
		t.Errorf("WriteTo = %q", out)
	}
	if strings.Index(out, "a 1") > strings.Index(out, "b 2") {
		t.Errorf("counters not sorted: %q", out)
	}
}
