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
	"time"

	"uavdc/internal/oplog"
)

// maxRequestBytes bounds a /plan request body (a 100k-sensor field is
// ~6 MB of JSON).
const maxRequestBytes = 32 << 20

// bodyPresize caps how much of a /plan body's Content-Length is allocated
// before any of it arrives; a larger body grows the buffer as it is read,
// so a hostile header cannot force a large allocation.
const bodyPresize = 256 << 10

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
// /plan reads the whole body and looks its SHA-256 digest up in the body
// memo before decoding it (with the memo disabled, CacheSize < 0, it
// decodes the body as it streams in). Decoding and Request.Key are pure functions of
// the body bytes, so a byte-identical repeat whose plan is still cached is
// served as the hit Server.Do would return, without either; anything else
// is decoded and goes through Do, and a body that keys is memoized.
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
	if s.memo.cap > 0 {
		raw, readErr := readBody(body, r.ContentLength)
		if readErr == nil {
			sum := sha256.Sum256(raw)
			digest = string(sum[:])
			if key, ok := s.memo.Get(digest); ok {
				if out, ok := s.doCached(key); ok {
					writeOutcome(w, out)
					return
				}
			}
		}
		// A failed read is replayed to the decoder after the bytes that
		// arrived, so it reports exactly what decoding the stream would.
		body = bytes.NewReader(raw)
		if readErr != nil {
			body = io.MultiReader(body, errReader{readErr})
		}
	}
	req, err := decodeRequest(body)
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
// n (-1 when unknown). On error it returns the bytes read before the
// error.
func readBody(body io.Reader, n int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(n, 0), bodyPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
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
