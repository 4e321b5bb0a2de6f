// Package trace is the mission flight-recorder: a zero-dependency,
// hierarchical span + event layer that composes with the obs counters.
// Planners emit phase spans (plan/alg2/iterate, tsp/christofides/matching,
// ...) and the executors emit a per-mission event log (mission/takeoff,
// mission/replan, ...), each record carrying deterministic attributes
// (battery, volume, deviation, active faults) next to its wall timestamp.
//
// Design rules, extending obs's:
//
//   - Recording never changes planner or executor output. The default
//     Tracer is Discard, a shared no-op; an unattached run pays one
//     interface call (guarded by Enabled) per potential record.
//   - The record stream is deterministic modulo timestamps: for a fixed
//     instance, stripping wall times yields a byte-identical exported
//     stream on every run.
//   - Wall timestamps are seconds since the buffer's epoch and are the
//     only non-deterministic field; exporters can strip them.
package trace

import "uavdc/internal/obs"

// Attr is one deterministic key/value attribute of a record. Exactly one
// of the string or numeric payload is meaningful.
type Attr struct {
	Key string
	// Str carries the value when IsStr; Num otherwise.
	Str   string
	Num   float64
	IsStr bool
}

// Num returns a numeric attribute.
func Num(key string, v float64) Attr { return Attr{Key: key, Num: v} }

// Int returns a numeric attribute holding an integer.
func Int(key string, v int) Attr { return Attr{Key: key, Num: float64(v)} }

// Str returns a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// Tracer records hierarchical spans and point events. Implementations
// must be safe for serial use from one goroutine.
type Tracer interface {
	// Begin opens a span; calling the returned function closes it, with
	// optional result attributes attached to the end record.
	Begin(name string, attrs ...Attr) func(end ...Attr)
	// Event records a point event at the current span depth.
	Event(name string, attrs ...Attr)
	// Enabled reports whether records are being kept: callers should skip
	// attribute construction when false.
	Enabled() bool
	// Detail reports whether high-volume recording (per-candidate scan
	// events) is requested.
	Detail() bool
}

// Discard is the no-op Tracer every planner and executor defaults to.
var Discard Tracer = nop{}

type nop struct{}

func (nop) Begin(string, ...Attr) func(...Attr) { return nopEnd }
func (nop) Event(string, ...Attr)               {}
func (nop) Enabled() bool                       { return false }
func (nop) Detail() bool                        { return false }

func nopEnd(...Attr) {}

// OrDiscard resolves an optional tracer: nil becomes Discard.
func OrDiscard(t Tracer) Tracer {
	if t == nil {
		return Discard
	}
	return t
}

// Carrier is an obs.Recorder that additionally carries a Tracer — the
// composition point between the two instrumentation layers. Build one
// with With; recover the tracer with Of.
type Carrier interface {
	obs.Recorder
	TraceTracer() Tracer
}

type carrier struct {
	obs.Recorder
	t Tracer
}

func (c carrier) TraceTracer() Tracer { return c.t }

// With attaches a tracer to an obs recorder, returning a Carrier that
// records counters into r and spans/events into t. Attaching Discard (or
// nil) returns r unchanged, so uninstrumented paths keep their original
// dynamic type.
func With(r obs.Recorder, t Tracer) obs.Recorder {
	t = OrDiscard(t)
	if t == Discard {
		return obs.OrDiscard(r)
	}
	return carrier{obs.OrDiscard(r), t}
}

// Of recovers the tracer riding on an obs recorder, or Discard. This is
// how instrumented packages with `rec ...obs.Recorder` signatures (tsp,
// matching, orienteering) reach the trace layer without new parameters.
func Of(r obs.Recorder) Tracer {
	if c, ok := r.(Carrier); ok {
		return OrDiscard(c.TraceTracer())
	}
	return Discard
}
