package oplog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		disp := DispMiss
		if i%2 == 1 {
			disp = DispHit
		}
		recs[i] = Record{
			Seq:      int64(i + 1),
			Key:      fmt.Sprintf("key-%d", i%3),
			Disp:     disp,
			Status:   200,
			QueueS:   float64(i) * 0.001,
			PlanS:    float64(i) * 0.01,
			ElapsedS: float64(i+1) * 0.1,
			Worker:   1 + i%2,
			CacheLen: i + 1,
			Evicted:  i % 2,
		}
	}
	return recs
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0, false)
	want := sampleRecords(5)
	accepted, dropped := 0, 0
	for _, r := range want {
		if w.Record(r) {
			accepted++
		} else {
			dropped++
		}
	}
	if err := w.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != Schema || hdr.Strip {
		t.Fatalf("header = %+v", hdr)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if accepted != 5 || dropped != 0 {
		t.Errorf("accepted/dropped = %d/%d, want 5/0", accepted, dropped)
	}
}

func TestWriterStripMode(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0, true)
	for _, r := range sampleRecords(3) {
		w.Record(r)
	}
	if err := w.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	stream := buf.String()
	hdr, recs, err := Read(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Strip {
		t.Error("stripped stream header lacks strip marker")
	}
	for i, r := range recs {
		if r.QueueS != 0 || r.PlanS != 0 || r.ElapsedS != 0 || r.Worker != 0 {
			t.Errorf("record %d kept wall/scheduling fields: %+v", i, r)
		}
		if r.Seq != int64(i+1) || r.Disp == "" || r.CacheLen == 0 && i > 0 {
			t.Errorf("record %d lost deterministic fields: %+v", i, r)
		}
	}
	if !strings.Contains(stream, `"queue_s":0`) {
		t.Error("stripped stream should still carry zeroed wall fields for a stable schema")
	}
}

// gatedSink blocks every Write until the gate is opened, then appends to
// an internal buffer. It simulates a stalled log sink.
type gatedSink struct {
	gate chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (g *gatedSink) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestWriterStalledSinkDropsNeverBlocks is the backpressure contract:
// with the sink wedged on the header write, producers get exactly the
// buffer capacity accepted and everything beyond dropped, without a
// single blocked Record call.
func TestWriterStalledSinkDropsNeverBlocks(t *testing.T) {
	sink := &gatedSink{gate: make(chan struct{})}
	w := NewWriter(sink, 4, false)
	recs := sampleRecords(10)
	accepted, dropped := 0, 0
	for _, r := range recs {
		if w.Record(r) {
			accepted++
		} else {
			dropped++
		}
	}
	if accepted != 4 || dropped != 6 {
		t.Fatalf("accepted/dropped = %d/%d, want 4/6", accepted, dropped)
	}

	// A Close against the still-stalled sink must respect its context.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	err := w.Close(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close on stalled sink = %v, want deadline exceeded", err)
	}

	// Unwedge the sink: the accepted records drain.
	close(sink.gate)
	if err := w.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	stream := sink.buf.String()
	sink.mu.Unlock()
	_, got, err := Read(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("drained %d records, want the 4 accepted", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWriterRecordAfterCloseIsDropNotPanic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 2, false)
	if err := w.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.Record(Record{Seq: 1, Disp: DispHit}) {
		t.Error("record accepted after Close; want deterministic drop")
	}
	if err := w.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

type failingSink struct{ n int }

func (f *failingSink) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 { // header succeeds, first record fails
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriterSinkErrorIsSticky(t *testing.T) {
	w := NewWriter(&failingSink{}, 0, false)
	for _, r := range sampleRecords(3) {
		w.Record(r)
	}
	err := w.Close(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want sink error", err)
	}
	if w.Err() == nil {
		t.Error("Err() lost the sink error")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Seq: 1, Key: "a", Disp: DispMiss, ElapsedS: 0.4},
		{Seq: 2, Key: "a", Disp: DispHit, ElapsedS: 0.1},
		{Seq: 3, Key: "b", Disp: DispHit, ElapsedS: 0.2},
		{Seq: 4, Key: "c", Disp: DispRejected, Status: 503, ElapsedS: 0.05},
		{Seq: 5, Key: "a", Disp: DispHit, ElapsedS: 0.3},
	}
	s := Summarize(recs, 2)
	if s.Records != 5 {
		t.Errorf("Records = %d", s.Records)
	}
	if s.ByDisp[DispHit] != 3 || s.ByDisp[DispMiss] != 1 || s.ByDisp[DispRejected] != 1 {
		t.Errorf("ByDisp = %v", s.ByDisp)
	}
	// Sorted elapsed: 0.05 0.1 0.2 0.3 0.4; nearest-rank p50 = 3rd = 0.2,
	// p90 and p99 = 5th = 0.4.
	if s.P50S != 0.2 || s.P90S != 0.4 || s.P99S != 0.4 {
		t.Errorf("quantiles = %g/%g/%g", s.P50S, s.P90S, s.P99S)
	}
	if len(s.TopKeys) != 2 || s.TopKeys[0] != (KeyCount{Key: "a", Count: 3}) {
		t.Errorf("TopKeys = %v", s.TopKeys)
	}
	// Ties rank lexicographically: b and c both count 1, b wins slot 2.
	if s.TopKeys[1] != (KeyCount{Key: "b", Count: 1}) {
		t.Errorf("TopKeys[1] = %v, want b", s.TopKeys[1])
	}
	empty := Summarize(nil, 3)
	if empty.Records != 0 || empty.P99S != 0 || empty.TopKeys != nil {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestDiffModuloWallFields(t *testing.T) {
	a := sampleRecords(6)
	b := make([]Record, len(a))
	copy(b, a)
	for i := range b {
		// Perturb every wall/scheduling field; the diff must not care.
		b[i].QueueS *= 3
		b[i].PlanS += 0.5
		b[i].ElapsedS += 1
		b[i].Worker = 9
	}
	if d := Diff(a, b); !d.Equal || d.Detail != "" {
		t.Fatalf("wall-only perturbation diffed: %+v", d)
	}

	b[3].Disp = DispCoalesced
	d := Diff(a, b)
	if d.Equal {
		t.Fatal("disposition change not detected")
	}
	if !strings.Contains(d.Detail, "record 3 diverges") {
		t.Errorf("Detail missing first divergence: %q", d.Detail)
	}
	if !strings.Contains(d.Detail, "disposition coalesced: 0 vs 1") {
		t.Errorf("Detail missing disposition delta: %q", d.Detail)
	}

	if d := Diff(a, a[:4]); d.Equal || !strings.Contains(d.Detail, "record counts differ: 6 vs 4") {
		t.Errorf("length mismatch diff = %+v", d)
	}
}

func TestReadRejectsBadStreams(t *testing.T) {
	if _, _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, _, err := Read(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage header accepted")
	}
	stream := `{"schema":"uavdc-oplog/1"}` + "\n\n" + `{"i":1,"disp":"hit","status":200}` + "\n"
	hdr, recs, err := Read(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != Schema || len(recs) != 1 || recs[0].Disp != DispHit {
		t.Errorf("parsed %+v %+v", hdr, recs)
	}
}
