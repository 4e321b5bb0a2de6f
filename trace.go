package uavdc

import (
	"io"
	"strings"

	"uavdc/internal/trace"
)

// Trace is a mission flight recorder. Attach one to Options.Trace and every
// planner phase (candidate generation, greedy iterations, the TSP/
// orienteering solver stack) records a hierarchical span, and every
// simulated mission records a "mission/..." event log (takeoff, arrivals,
// collections, replans, diversions, return) with battery, volume, and —
// under the adaptive executor — energy deviation and active fault counts.
//
// Recording never changes planner output: plans are bit-identical with
// tracing on or off, at any worker count. The event stream is deterministic
// modulo wall-clock timestamps — exporting with stripped times yields
// byte-identical output for a fixed scenario, options, fault schedule, and
// noise seed.
//
// A Trace is not safe for concurrent use across missions; the planners'
// internal parallel scans are sharded and merged deterministically by the
// library. The zero value is not usable; call NewTrace.
type Trace struct {
	buf *trace.Buffer
}

// NewTrace returns an empty flight recorder.
func NewTrace() *Trace { return &Trace{buf: trace.NewBuffer()} }

// SetDetail toggles per-candidate detail events ("scan/eval", one per
// candidate evaluation). Off (the default) records phase spans and mission
// events only; on, traces grow by one event per candidate scored (a
// candidate answered from its unchanged last offer is not scored again)
// and remain deterministic.
func (t *Trace) SetDetail(on bool) { t.buf.SetDetail(on) }

// Len returns the number of records captured so far.
func (t *Trace) Len() int { return t.buf.Len() }

// Reset discards all captured records (metadata is kept).
func (t *Trace) Reset() { t.buf.Reset() }

// WriteJSONL exports the trace in the uavdc-trace/1 JSONL schema (see
// EXPERIMENTS.md). With stripTimes the wall-clock "t" field is omitted and
// the output is byte-deterministic.
func (t *Trace) WriteJSONL(w io.Writer, stripTimes bool) error {
	return trace.WriteJSONL(w, t.buf.Snapshot(), stripTimes)
}

// WriteChromeTrace exports the trace in the Chrome trace-event JSON array
// format, loadable in chrome://tracing or https://ui.perfetto.dev.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChromeTrace(w, t.buf.Snapshot())
}

// WriteSummary writes the uavtrace text report — per-phase time attribution,
// the topK slowest spans, and the mission event timeline — to w.
func (t *Trace) WriteSummary(w io.Writer, topK int) error {
	var sb strings.Builder
	trace.Summarize(t.buf.Snapshot(), topK).WriteText(&sb)
	_, err := io.WriteString(w, sb.String())
	return err
}

// tracer resolves the internal tracer: Discard when no recorder is
// attached, so every call site can pass it unconditionally.
func (t *Trace) tracer() trace.Tracer {
	if t == nil || t.buf == nil {
		return trace.Discard
	}
	return t.buf
}
