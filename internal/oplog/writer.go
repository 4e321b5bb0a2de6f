package oplog

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DefaultBuffer is the record-channel capacity a Writer gets when the
// caller passes buffer ≤ 0.
const DefaultBuffer = 1024

// Writer appends Records to a sink as a uavdc-oplog/1 JSONL stream from
// a single background goroutine, decoupled from producers by a bounded
// channel: Record never blocks, and when the channel is full (a slow or
// stalled sink) the record is dropped instead and Record reports it. This is the
// contract that lets the serving layer log on the request path — the
// op-log can lose lines under pressure, but it can never add latency.
//
// The header line is written first, before any record is received, so a
// sink that blocks immediately still leaves producers unharmed: exactly
// the channel capacity is accepted, the rest drop.
type Writer struct {
	records  chan Record
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	strip bool

	mu  sync.Mutex
	err error
}

// NewWriter starts the background writer over w. buffer ≤ 0 selects
// DefaultBuffer. When strip is true every record is reduced to its
// deterministic projection (Record.Strip) before encoding and the header
// carries "strip": true.
func NewWriter(w io.Writer, buffer int, strip bool) *Writer {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	ow := &Writer{
		records: make(chan Record, buffer),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		strip:   strip,
	}
	go ow.run(w)
	return ow
}

// Record offers one record to the writer. It never blocks: the return
// value reports whether the record was accepted (false means it was
// dropped because the buffer is full or the writer is stopped and has
// already drained). Safe to call concurrently, and safe after Close —
// late records are dropped, never a panic. Callers count the drops (the
// serving layer's serve.oplog.dropped counter).
func (w *Writer) Record(rec Record) bool {
	select {
	case <-w.stop:
		return false
	default:
	}
	select {
	case w.records <- rec:
		return true
	default:
		return false
	}
}

// Err returns the first sink write error, if any. Once a write fails the
// writer keeps draining (producers stay unblocked) but stops encoding.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the writer, drains every record accepted before the stop,
// and waits for the goroutine to finish or the context to expire. It is
// idempotent; the returned error is the context's or the first sink
// write error.
func (w *Writer) Close(ctx context.Context) error {
	w.stopOnce.Do(func() { close(w.stop) })
	select {
	case <-w.done:
		return w.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *Writer) run(sink io.Writer) {
	defer close(w.done)
	enc := json.NewEncoder(sink)
	w.setErr(enc.Encode(Header{Schema: Schema, Strip: w.strip}))
	for {
		select {
		case rec := <-w.records:
			w.write(enc, rec)
		case <-w.stop:
			for {
				select {
				case rec := <-w.records:
					w.write(enc, rec)
				default:
					return
				}
			}
		}
	}
}

func (w *Writer) write(enc *json.Encoder, rec Record) {
	if w.Err() != nil {
		return
	}
	if w.strip {
		rec = rec.Strip()
	}
	w.setErr(enc.Encode(rec))
}

func (w *Writer) setErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("oplog: write: %w", err)
	}
	w.mu.Unlock()
}
