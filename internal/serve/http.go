package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"uavdc/internal/oplog"
)

// maxRequestBytes bounds a /plan request body (a 100k-sensor field is
// ~6 MB of JSON).
const maxRequestBytes = 32 << 20

// bodyPresize caps how much of a /plan body's Content-Length is allocated
// before any of it arrives; a larger body grows the buffer as it is read,
// so a hostile header cannot force a large allocation. It also bounds
// what bodyBufs keeps: a buffer that grew past bodyPresize + bytes.MinRead
// is left to the GC, so neither a hostile body nor a huge field stays
// resident after its request.
const bodyPresize = 256 << 10

// bodyBufs recycles the /plan read buffers (each a *[]byte) that
// readBody fills and releaseBody gives back.
var bodyBufs sync.Pool

// Handler returns the daemon's HTTP surface:
//
//	POST /plan           uavdc-serve/1 request → uavdc-serve/1 response
//	GET  /metrics        obs counter/gauge/histogram text
//	GET  /healthz        uavdc-health/1 JSON (uptime, drain state, cache, queue)
//	GET  /debug/window   uavdc-window/1 JSON over the trailing ?s= seconds
//	GET  /debug/runtime  uavdc-runtime/1 JSON (heap, GC, goroutines)
//	GET  /debug/oplog    uavdc-oplog/1 JSONL of recent records, ?after= for tailing
//
// Response bodies are a pure function of the canonical instance; the
// request-scoped envelope rides in headers: Uavdc-Cache (hit, miss,
// coalesced), Uavdc-Key, and Uavdc-Elapsed-Us.
//
// /plan reads the whole body into a reused buffer and looks its SHA-256
// digest up in the body memo before decoding it (with the memo disabled,
// CacheSize < 0, it decodes the body as it streams in). Decoding and
// Request.Key are pure functions of the body bytes, so a byte-identical
// repeat whose plan is still cached is served as the hit Server.Do would
// return, without either; anything else is decoded and goes through Do,
// and a body that keys is memoized. The buffer goes back for the next
// request once the hit is written or the body is decoded, never later
// than the start of a plan.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/window", s.handleWindow)
	mux.HandleFunc("/debug/runtime", s.handleRuntime)
	mux.HandleFunc("/debug/oplog", s.handleOplog)
	return mux
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeBody(w, http.StatusMethodNotAllowed, encodeError(ErrBadRequest, "use POST"))
		return
	}
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var digest string
	var buf *[]byte
	if s.memo.cap > 0 {
		var readErr error
		buf, readErr = readBody(body, r.ContentLength)
		if readErr == nil {
			sum := sha256.Sum256(*buf)
			digest = string(sum[:])
			if key, ok := s.memo.Get(digest); ok {
				if out, ok := s.doCached(key); ok {
					writeOutcome(w, out)
					releaseBody(buf)
					return
				}
			}
		}
		// A failed read is replayed to the decoder after the bytes that
		// arrived, so it reports exactly what decoding the stream would.
		body = bytes.NewReader(*buf)
		if readErr != nil {
			body = io.MultiReader(body, errReader{readErr})
		}
	}
	req, err := decodeRequest(body)
	releaseBody(buf)
	if err != nil {
		writeBody(w, http.StatusBadRequest, encodeError(ErrBadRequest, fmt.Sprintf("decode request: %v", err)))
		return
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	out := s.Do(ctx, req)
	if digest != "" && out.Key != "" {
		s.memo.Put(digest, out.Key)
	}
	writeOutcome(w, out)
}

// writeOutcome sends a Server.Do outcome with its envelope headers.
func writeOutcome(w http.ResponseWriter, out Outcome) {
	if out.Cache != "" {
		w.Header().Set("Uavdc-Cache", out.Cache)
	}
	if out.Key != "" {
		w.Header().Set("Uavdc-Key", out.Key)
	}
	w.Header().Set("Uavdc-Elapsed-Us", strconv.FormatInt(out.Elapsed.Microseconds(), 10))
	writeBody(w, out.Status, out.Body)
}

// readBody reads the whole /plan body from body, whose declared length is
// n (-1 when unknown), into a buffer from bodyBufs. The buffer holds at
// least min(n, bodyPresize) + bytes.MinRead bytes before the read starts;
// a smaller pooled one is dropped for a new one. On error it holds the
// bytes read before the error.
//
// The caller hands the buffer to releaseBody as soon as nothing reads its
// bytes, and the next request overwrites them, so nothing may keep a
// reference into them: the memo digest is a copy (a string of the
// SHA-256 sum), json.Decoder copies the bytes into its own buffer and
// Request has no []byte or json.RawMessage field, so every decoded value
// and decode error text is a copy too, and a read error is replayed
// through errReader only after the decoder has read every byte before it.
func readBody(body io.Reader, n int64) (*[]byte, error) {
	want := int(min(max(n, 0), bodyPresize)) + bytes.MinRead
	p, _ := bodyBufs.Get().(*[]byte)
	if p == nil || cap(*p) < want {
		b := make([]byte, 0, want)
		p = &b
	}
	buf := bytes.NewBuffer((*p)[:0])
	_, err := buf.ReadFrom(body)
	*p = buf.Bytes()
	return p, err
}

// releaseBody returns a readBody buffer (nil is a no-op) to bodyBufs,
// unless it grew past bodyPresize + bytes.MinRead.
func releaseBody(p *[]byte) {
	if p != nil && cap(*p) <= bodyPresize+bytes.MinRead {
		bodyBufs.Put(p)
	}
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRequest decodes exactly one JSON request from body. Whitespace
// may follow it; anything else is an error, so a body is never half
// read.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the request")
		}
		return Request{}, err
	}
	return req, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The snapshot write cannot fail on an http.ResponseWriter in any
	// way a handler could recover from.
	_ = s.WriteMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Always 200: drain state is data for the prober, not liveness.
	writeJSON(w, s.Health())
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	window := 60 * time.Second
	if q := r.URL.Query().Get("s"); q != "" {
		secs, err := strconv.Atoi(q)
		if err != nil || secs <= 0 {
			writeBody(w, http.StatusBadRequest, encodeError(ErrBadRequest, "s must be a positive integer of seconds"))
			return
		}
		// A span past what a Duration holds reads the whole ring, as any
		// span beyond the ring's does; unclamped, it would wrap negative.
		window = time.Duration(min(int64(secs), math.MaxInt64/int64(time.Second))) * time.Second
	}
	writeJSON(w, s.WindowStats(window))
}

func (s *Server) handleRuntime(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ReadRuntimeStats())
}

func (s *Server) handleOplog(w http.ResponseWriter, r *http.Request) {
	var after int64
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			writeBody(w, http.StatusBadRequest, encodeError(ErrBadRequest, "after must be a non-negative sequence number"))
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	// A broken client connection cannot be recovered from in a handler;
	// encode errors are deliberately dropped.
	_ = enc.Encode(oplog.Header{Schema: oplog.Schema})
	for _, rec := range s.OpLogSince(after) {
		_ = enc.Encode(rec)
	}
}

// writeJSON sends v as a compact JSON body with a trailing newline.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	// Encoding a flat struct onto a ResponseWriter cannot fail in any way
	// a handler could recover from.
	_ = enc.Encode(v)
}

// writeBody sends a JSON body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
