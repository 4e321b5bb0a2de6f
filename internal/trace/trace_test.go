package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"uavdc/internal/obs"
)

func TestDiscardIsInert(t *testing.T) {
	end := Discard.Begin("x", Num("a", 1))
	end(Num("b", 2))
	Discard.Event("y")
	if Discard.Enabled() || Discard.Detail() {
		t.Fatal("Discard must report disabled")
	}
	if OrDiscard(nil) != Discard {
		t.Fatal("OrDiscard(nil) != Discard")
	}
}

func TestBufferSpansAndDepth(t *testing.T) {
	b := NewBuffer()
	endOuter := b.Begin("outer", Str("k", "v"))
	b.Event("ev", Int("n", 3))
	endInner := b.Begin("inner")
	endInner()
	endOuter(Num("res", 1.5))

	tr := b.Snapshot()
	want := []struct {
		kind  Kind
		name  string
		depth int
	}{
		{KindBegin, "outer", 0},
		{KindEvent, "ev", 1},
		{KindBegin, "inner", 1},
		{KindEnd, "inner", 1},
		{KindEnd, "outer", 0},
	}
	if len(tr.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(tr.Records), len(want))
	}
	for i, w := range want {
		r := tr.Records[i]
		if r.Kind != w.kind || r.Name != w.name || r.Depth != w.depth {
			t.Errorf("record %d = %c %s depth %d, want %c %s depth %d",
				i, r.Kind, r.Name, r.Depth, w.kind, w.name, w.depth)
		}
	}
	if got := tr.Records[4].Attrs; len(got) != 1 || got[0].Key != "res" || got[0].Num != 1.5 {
		t.Errorf("end attrs = %v", got)
	}
}

func TestSetMetaReplaces(t *testing.T) {
	b := NewBuffer()
	b.SetMeta(Str("planner", "alg2"), Int("workers", 1))
	b.SetMeta(Int("workers", 8))
	tr := b.Snapshot()
	if len(tr.Meta) != 2 {
		t.Fatalf("meta = %v", tr.Meta)
	}
	if tr.Meta[1].Key != "workers" || tr.Meta[1].Num != 8 {
		t.Fatalf("meta = %v", tr.Meta)
	}
}

func TestCarrierWithOf(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBuffer()
	r := With(reg, b)
	if Of(r) != Tracer(b) {
		t.Fatal("Of did not recover tracer")
	}
	r.Counter("x").Inc()
	if reg.Snapshot().Counters["x"] != 1 {
		t.Fatal("carrier did not forward counters")
	}
	// Discard tracer leaves the recorder untouched.
	if With(reg, Discard) != obs.Recorder(reg) {
		t.Fatal("With(r, Discard) must return r")
	}
	if With(reg, nil) != obs.Recorder(reg) {
		t.Fatal("With(r, nil) must return r")
	}
	if Of(reg) != Discard {
		t.Fatal("Of(plain recorder) must be Discard")
	}
}

func TestJSONLRoundTripAndStripDeterminism(t *testing.T) {
	mk := func() Trace {
		b := NewBuffer()
		b.SetMeta(Str("planner", "alg2"), Int("seed", 42))
		end := b.Begin("plan/alg2", Int("n", 10))
		b.Event("mission/collect", Num("battery_j", 100.5), Int("stop", 2), Str("faults", ""))
		end(Num("energy_j", 12.25))
		return b.Snapshot()
	}

	var s1, s2 bytes.Buffer
	if err := WriteJSONL(&s1, mk(), true); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&s2, mk(), true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("stripped JSONL is not byte-deterministic")
	}
	if !strings.Contains(s1.String(), Schema) {
		t.Fatal("header missing schema tag")
	}
	if strings.Contains(s1.String(), `"t":`) {
		t.Fatal("stripped stream contains wall times")
	}

	var full bytes.Buffer
	if err := WriteJSONL(&full, mk(), false); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&full)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 3 {
		t.Fatalf("round trip lost records: %d", len(back.Records))
	}
	if d := Diff(mk(), back); !d.Equal {
		// Attr order may differ after the round trip (JSON objects are
		// unordered) — compare via count deltas instead.
		if len(d.CountDelta) != 0 {
			t.Fatalf("round trip changed stream: %s %v", d.Detail, d.CountDelta)
		}
	}
}

func TestReadJSONLRejectsBadSchema(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"schema":"other/9"}` + "\n")); err == nil {
		t.Fatal("expected schema error")
	}
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Fatal("expected empty-stream error")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	b := NewBuffer()
	end := b.Begin("plan/alg3")
	b.Event("mission/replan", Int("stop", 1))
	end()
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "[") || !strings.Contains(s, `"ph"`) {
		t.Fatalf("unexpected chrome trace: %s", s)
	}
	var v []map[string]any
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(v) != 3 {
		t.Fatalf("got %d events, want 3", len(v))
	}
}

func TestSummarizePhasesAndMission(t *testing.T) {
	tr := Trace{Records: []Record{
		{Kind: KindBegin, Name: "plan/alg2", Depth: 0, Wall: 0},
		{Kind: KindBegin, Name: "plan/alg2/iterate", Depth: 1, Wall: 1},
		{Kind: KindEnd, Name: "plan/alg2/iterate", Depth: 1, Wall: 3},
		{Kind: KindEnd, Name: "plan/alg2", Depth: 0, Wall: 4},
		{Kind: KindEvent, Name: "mission/takeoff", Depth: 0, Wall: 4,
			Attrs: []Attr{Num("t_sim", 0), Num("battery_j", 100), Int("stop", -1)}},
		{Kind: KindEvent, Name: "mission/arrive", Depth: 0, Wall: 5,
			Attrs: []Attr{Num("t_sim", 10), Num("battery_j", 80), Int("stop", 0)}},
	}}
	s := Summarize(tr, 10)
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %v", s.Phases)
	}
	if s.Phases[0].Name != "plan/alg2" || s.Phases[0].Total != 4 || s.Phases[0].Self != 2 {
		t.Fatalf("outer phase = %+v", s.Phases[0])
	}
	if s.Phases[1].Name != "plan/alg2/iterate" || s.Phases[1].Self != 2 {
		t.Fatalf("inner phase = %+v", s.Phases[1])
	}
	if len(s.Mission) != 2 || s.EnergyByLeg[1] != 20 {
		t.Fatalf("mission = %+v energy = %v", s.Mission, s.EnergyByLeg)
	}
	if s.Unbalanced != 0 {
		t.Fatalf("unbalanced = %d", s.Unbalanced)
	}
	var sb strings.Builder
	s.WriteText(&sb)
	if !strings.Contains(sb.String(), "plan/alg2/iterate") || !strings.Contains(sb.String(), "takeoff") {
		t.Fatalf("report missing content:\n%s", sb.String())
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	a := Trace{Records: []Record{{Kind: KindEvent, Name: "x", Wall: 1}}}
	b := Trace{Records: []Record{{Kind: KindEvent, Name: "x", Wall: 99}}}
	if d := Diff(a, b); !d.Equal {
		t.Fatalf("wall-time-only difference must diff Equal: %+v", d)
	}
	c := Trace{Records: []Record{{Kind: KindEvent, Name: "y"}}}
	d := Diff(a, c)
	if d.Equal || d.FirstDivergence != 0 || d.CountDelta["I x"] != 1 || d.CountDelta["I y"] != -1 {
		t.Fatalf("diff = %+v", d)
	}
	e := Trace{}
	if d := Diff(a, e); d.Equal || d.FirstDivergence != 0 {
		t.Fatalf("prefix diff = %+v", d)
	}
}
