package trace

import "time"

// Kind discriminates the three record types of a trace stream.
type Kind byte

const (
	// KindBegin opens a span.
	KindBegin Kind = 'B'
	// KindEnd closes the innermost open span.
	KindEnd Kind = 'E'
	// KindEvent is an instantaneous point event.
	KindEvent Kind = 'I'
)

// Record is one entry of a trace stream. The stream is flat: spans are a
// matched KindBegin/KindEnd pair at the same Depth, with their children
// recorded in between at Depth+1.
type Record struct {
	// Kind is the record type.
	Kind Kind
	// Name identifies the span or event (slash-separated phases for
	// planner spans, "mission/<kind>" for executor events).
	Name string
	// Depth is the span-nesting depth at which the record was emitted
	// (0 = top level).
	Depth int
	// Wall is seconds since the buffer's epoch — the only
	// non-deterministic field; exporters can strip it.
	Wall float64
	// Attrs are the record's deterministic attributes, in emission order.
	Attrs []Attr
}

// Buffer is the standard Tracer: an in-memory, sequence-ordered record
// stream. A Buffer is not safe for concurrent use.
type Buffer struct {
	epoch  time.Time
	detail bool
	depth  int
	recs   []Record
	meta   []Attr
}

// NewBuffer returns an empty buffer whose epoch is now.
func NewBuffer() *Buffer {
	return &Buffer{epoch: time.Now()}
}

// SetDetail turns high-volume recording (per-candidate scan events) on or
// off.
func (b *Buffer) SetDetail(on bool) { b.detail = on }

// SetMeta sets header attributes exported with the stream (instance
// seed, planner name, ...). Later calls replace earlier
// values for the same key.
func (b *Buffer) SetMeta(attrs ...Attr) {
	for _, a := range attrs {
		replaced := false
		for i := range b.meta {
			if b.meta[i].Key == a.Key {
				b.meta[i] = a
				replaced = true
				break
			}
		}
		if !replaced {
			b.meta = append(b.meta, a)
		}
	}
}

// Begin implements Tracer.
func (b *Buffer) Begin(name string, attrs ...Attr) func(end ...Attr) {
	d := b.depth
	start := time.Since(b.epoch).Seconds()
	b.recs = append(b.recs, Record{Kind: KindBegin, Name: name, Depth: d, Wall: start, Attrs: attrs})
	b.depth = d + 1
	return func(end ...Attr) {
		wall := time.Since(b.epoch).Seconds()
		b.recs = append(b.recs, Record{Kind: KindEnd, Name: name, Depth: d, Wall: wall, Attrs: end})
		b.depth = d
	}
}

// Event implements Tracer.
func (b *Buffer) Event(name string, attrs ...Attr) {
	b.recs = append(b.recs, Record{
		Kind: KindEvent, Name: name, Depth: b.depth,
		Wall: time.Since(b.epoch).Seconds(), Attrs: attrs,
	})
}

// Enabled implements Tracer.
func (b *Buffer) Enabled() bool { return true }

// Detail implements Tracer.
func (b *Buffer) Detail() bool { return b.detail }

// Len returns the number of records.
func (b *Buffer) Len() int { return len(b.recs) }

// Reset drops every record and metadata attribute, keeping the epoch and
// detail setting.
func (b *Buffer) Reset() {
	b.recs = b.recs[:0]
	b.meta = nil
	b.depth = 0
}

// Trace is an immutable snapshot of a buffer: the export and analysis
// unit. Seq numbers are assigned at snapshot time as stream indices.
type Trace struct {
	// Meta are the header attributes set via SetMeta.
	Meta []Attr
	// Records is the full stream in sequence order.
	Records []Record
}

// Snapshot copies the buffer's current stream.
func (b *Buffer) Snapshot() Trace {
	return Trace{
		Meta:    append([]Attr(nil), b.meta...),
		Records: append([]Record(nil), b.recs...),
	}
}
