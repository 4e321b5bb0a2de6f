package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"uavdc"
)

// stubServer is a server whose planner answers with the key, so memo
// tests run without planning.
func stubServer(cacheSize int) *Server {
	return New(Config{CacheSize: cacheSize, planFn: stubPlanner})
}

// send posts body to the handler in-process and returns the recorded
// response.
func send(h http.Handler, body io.Reader) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/plan", body))
	return w
}

// marshal encodes a request as /plan bodies are sent.
func marshal(t *testing.T, req Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBodyMemoHTTPParity: over HTTP, a repeated body served from the memo
// gets the status, body and headers (apart from the wall-clock ones), the
// stripped op-log records and the stripped serve/request spans that the
// decoding path gives a repeat of the same request. The decoding server
// gets each repeat with extra trailing whitespace: the same request, but
// a digest its memo has not seen.
func TestBodyMemoHTTPParity(t *testing.T) {
	a, b := marshal(t, testRequest(1)), marshal(t, testRequest(2))
	seq := [][]byte{a, a, a, b, a}
	type run struct {
		resps  []*http.Response
		bodies [][]byte
		oplog  bytes.Buffer
		trace  bytes.Buffer
		memo   int64
	}
	serveSeq := func(vary bool) *run {
		r := &run{}
		s := New(Config{planFn: stubPlanner, OpLog: &r.oplog, OpLogStrip: true, TraceWriter: &r.trace, StripTimes: true})
		ts := httptest.NewServer(s.Handler())
		seen := map[string]int{}
		for _, body := range seq {
			n := seen[string(body)]
			seen[string(body)]++
			if vary {
				body = append(bytes.Clone(body), strings.Repeat(" ", n)...)
			}
			resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			r.resps, r.bodies = append(r.resps, resp), append(r.bodies, got)
		}
		ts.Close()
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		r.memo = counter(s, CounterBodyMemoHits)
		return r
	}
	memo, dec := serveSeq(false), serveSeq(true)

	if memo.memo != 3 || dec.memo != 0 {
		t.Fatalf("serve.body_memo_hits = %d (repeated bodies), %d (varied bodies); want 3, 0", memo.memo, dec.memo)
	}
	for i := range seq {
		m, d := memo.resps[i], dec.resps[i]
		if m.StatusCode != d.StatusCode || !bytes.Equal(memo.bodies[i], dec.bodies[i]) {
			t.Fatalf("request %d: status %d vs %d, bodies equal %v", i, m.StatusCode, d.StatusCode, bytes.Equal(memo.bodies[i], dec.bodies[i]))
		}
		for _, h := range []http.Header{m.Header, d.Header} {
			h.Del("Uavdc-Elapsed-Us")
			h.Del("Date")
		}
		if fmt.Sprint(m.Header) != fmt.Sprint(d.Header) {
			t.Fatalf("request %d headers differ:\nmemo     %v\ndecoding %v", i, m.Header, d.Header)
		}
	}
	if want := []string{"miss", "hit", "hit", "miss", "hit"}; fmt.Sprint(cacheHeaders(memo.resps)) != fmt.Sprint(want) {
		t.Fatalf("Uavdc-Cache = %v, want %v", cacheHeaders(memo.resps), want)
	}
	if !bytes.Equal(memo.oplog.Bytes(), dec.oplog.Bytes()) {
		t.Fatalf("stripped op-logs differ:\nmemo\n%sdecoding\n%s", memo.oplog.Bytes(), dec.oplog.Bytes())
	}
	if !bytes.Equal(memo.trace.Bytes(), dec.trace.Bytes()) {
		t.Fatalf("stripped traces differ:\nmemo\n%sdecoding\n%s", memo.trace.Bytes(), dec.trace.Bytes())
	}
}

// cacheHeaders lists the Uavdc-Cache header of each response.
func cacheHeaders(resps []*http.Response) []string {
	var out []string
	for _, r := range resps {
		out = append(out, r.Header.Get("Uavdc-Cache"))
	}
	return out
}

// TestBodyMemoBadBodiesNeverMemoized: a body that fails to decode, and
// one that decodes but fails to key, is a 400 with the same text both
// times it is sent, and neither enters the memo.
func TestBodyMemoBadBodiesNeverMemoized(t *testing.T) {
	unkeyable := testRequest(1)
	unkeyable.Schema = "nope/9"
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"decode", []byte("{not json")},
		{"key", marshal(t, unkeyable)},
	} {
		name, body := c.name, c.body
		s := stubServer(0)
		var first []byte
		for i := 0; i < 2; i++ {
			w := send(s.Handler(), bytes.NewReader(body))
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s, send %d: status %d, want 400", name, i, w.Code)
			}
			if i == 0 {
				first = w.Body.Bytes()
			} else if !bytes.Equal(w.Body.Bytes(), first) {
				t.Fatalf("%s: second 400 body %q, first %q", name, w.Body.Bytes(), first)
			}
		}
		if n := s.memo.Len(); n != 0 {
			t.Fatalf("%s: memo holds %d entries, want 0", name, n)
		}
		if n := counter(s, CounterBodyMemoHits); n != 0 {
			t.Fatalf("%s: serve.body_memo_hits = %d, want 0", name, n)
		}
		s.Close(context.Background())
	}
}

// TestBodyMemoEvictedPlanReplans: when the memo knows a body but the plan
// cache has evicted its plan, the body is decoded and planned again, as a
// miss, exactly as without the memo.
func TestBodyMemoEvictedPlanReplans(t *testing.T) {
	s := stubServer(1)
	defer s.Close(context.Background())
	a := marshal(t, testRequest(1))
	if w := send(s.Handler(), bytes.NewReader(a)); w.Header().Get("Uavdc-Cache") != "miss" {
		t.Fatalf("first send: cache %q", w.Header().Get("Uavdc-Cache"))
	}
	s.Do(context.Background(), testRequest(2)) // evicts a's plan; the memo keeps a
	w := send(s.Handler(), bytes.NewReader(a))
	if w.Code != 200 || w.Header().Get("Uavdc-Cache") != "miss" {
		t.Fatalf("after eviction: status %d cache %q, want 200 miss", w.Code, w.Header().Get("Uavdc-Cache"))
	}
	for _, c := range []struct {
		name string
		want int64
	}{{CounterRequests, 3}, {CounterMisses, 3}, {CounterPlans, 3}, {CounterHits, 0}, {CounterBodyMemoHits, 0}} {
		if got := counter(s, c.name); got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if w := send(s.Handler(), bytes.NewReader(a)); w.Header().Get("Uavdc-Cache") != "hit" || counter(s, CounterBodyMemoHits) != 1 {
		t.Fatalf("replanned body: cache %q, memo hits %d; want hit, 1", w.Header().Get("Uavdc-Cache"), counter(s, CounterBodyMemoHits))
	}
}

// TestBodyMemoDisabled: a negative CacheSize disables the memo with the
// plan cache.
func TestBodyMemoDisabled(t *testing.T) {
	s := stubServer(-1)
	defer s.Close(context.Background())
	a := marshal(t, testRequest(1))
	for i := 0; i < 2; i++ {
		if w := send(s.Handler(), bytes.NewReader(a)); w.Header().Get("Uavdc-Cache") != "miss" {
			t.Fatalf("send %d: cache %q, want miss", i, w.Header().Get("Uavdc-Cache"))
		}
	}
	if n := s.memo.Len(); n != 0 {
		t.Fatalf("memo holds %d entries, want 0", n)
	}
	if n := counter(s, CounterBodyMemoHits); n != 0 {
		t.Fatalf("serve.body_memo_hits = %d, want 0", n)
	}
	// With nothing to digest, the body is decoded as it streams in, so a
	// syntax error is rejected without reading the rest of the body.
	var read countingReader
	read.r = io.MultiReader(strings.NewReader(`{not json`), io.LimitReader(repeatByte('a'), maxRequestBytes))
	if w := send(s.Handler(), &read); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", w.Code)
	}
	if read.n >= 1<<20 {
		t.Fatalf("garbage body: %d bytes read before the 400, want under 1 MiB", read.n)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestBodyMemoBounded: the memo never holds more entries than the plan
// cache's capacity.
func TestBodyMemoBounded(t *testing.T) {
	const capacity = 2
	s := stubServer(capacity)
	defer s.Close(context.Background())
	for seed := uint64(1); seed <= 5; seed++ {
		body := marshal(t, testRequest(seed))
		for _, b := range [][]byte{body, append(bytes.Clone(body), ' ')} {
			send(s.Handler(), bytes.NewReader(b))
			if n := s.memo.Len(); n > capacity {
				t.Fatalf("memo holds %d entries, capacity %d", n, capacity)
			}
		}
	}
	if n := s.memo.Len(); n != capacity {
		t.Fatalf("memo holds %d entries, want %d", n, capacity)
	}
	if n := counter(s, CounterEvictions); n != 3 {
		t.Fatalf("serve.evictions = %d, want 3 (plan-cache evictions only)", n)
	}
}

// TestBodyMemoConcurrentRepeats: handlers racing on the memo and the plan
// cache serve every repeat of every body its own body, with the key
// decoding gives, and account each request once. Run it under -race.
func TestBodyMemoConcurrentRepeats(t *testing.T) {
	s := stubServer(0)
	defer s.Close(context.Background())
	var bodies [][]byte
	var keys []string
	for seed := uint64(1); seed <= 3; seed++ {
		req := testRequest(seed)
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		bodies, keys = append(bodies, marshal(t, req)), append(keys, key)
	}
	const clients, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(bodies); i++ {
				j := (c + i) % len(bodies)
				w := send(s.Handler(), bytes.NewReader(bodies[j]))
				if w.Code != 200 || w.Header().Get("Uavdc-Key") != keys[j] || w.Body.String() != keys[j]+"\n" {
					errs <- fmt.Errorf("body %d: status %d key %q body %q", j, w.Code, w.Header().Get("Uavdc-Key"), w.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(clients * rounds * len(bodies))
	c := s.Snapshot().Counters
	if c[CounterRequests] != total || c[CounterHits]+c[CounterMisses]+c[CounterCoalesced] != total {
		t.Fatalf("counters %v, want %d requests, each a hit, miss or coalesced wait", c, total)
	}
	if c[CounterPlans] != int64(len(bodies)) || c[CounterBodyMemoHits] == 0 || c[CounterBodyMemoHits] > c[CounterHits] {
		t.Fatalf("counters %v: want %d plans and 0 < body_memo_hits ≤ hits", c, len(bodies))
	}
}

// TestBodyMemoOversizeErrorText: a body over maxRequestBytes, and one
// with a syntax error early in an oversize body, get the 400 text that
// decoding the capped stream gives, with the memo on (the body is read
// whole, then replayed to the decoder) and off (it is decoded as it
// streams in).
func TestBodyMemoOversizeErrorText(t *testing.T) {
	pad := func() io.Reader { return io.LimitReader(repeatByte('a'), maxRequestBytes+1) }
	for _, c := range []struct {
		name, prefix string
	}{
		{"unterminated string", `{"schema":"`},
		{"early syntax error", `{not json`},
	} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(c.prefix), pad()) }
		rec := httptest.NewRecorder()
		_, err := decodeRequest(http.MaxBytesReader(rec, io.NopCloser(body()), maxRequestBytes))
		if err == nil {
			t.Fatalf("%s: the capped stream decoded", c.name)
		}
		want := encodeError(ErrBadRequest, fmt.Sprintf("decode request: %v", err))

		for _, size := range []int{0, -1} {
			s := stubServer(size)
			w := send(s.Handler(), body())
			if w.Code != http.StatusBadRequest || !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s, CacheSize %d: status %d body %q, want 400 %q", c.name, size, w.Code, w.Body.Bytes(), want)
			}
			if n := s.memo.Len(); n != 0 {
				t.Fatalf("%s, CacheSize %d: memo holds %d entries, want 0", c.name, size, n)
			}
			s.Close(context.Background())
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestBodyMemoPooledBuffersConcurrent: with the memo on, every /plan body
// is read into a buffer the next request reuses. Handlers racing over
// valid, undecodable, trailing-data, truncated, failed-read and
// past-bodyPresize bodies each get the status, key and body the
// memo-disabled server (which streams the body into the decoder) gives
// that body, so no reply is built from another request's bytes. The
// undecodable bodies and the read errors differ in the text their 400
// quotes. Run it under -race.
func TestBodyMemoPooledBuffersConcurrent(t *testing.T) {
	valid := marshal(t, testRequest(1))
	big := marshal(t, Request{
		Schema:   Schema,
		Scenario: SpecOf(uavdc.RandomScenario(5000, 2000, 9)),
		UAV:      UAVSpecOf(uavdc.DefaultUAV()),
	})
	if len(big) <= bodyPresize+bytes.MinRead {
		t.Fatalf("big body is %d bytes, want more than bodyPresize + bytes.MinRead", len(big))
	}
	unkeyable := testRequest(2)
	unkeyable.Schema = "nope/9"
	type body struct {
		b       []byte
		readErr error // after b, when set
	}
	bodies := []body{
		{b: valid},
		{b: marshal(t, testRequest(3))},
		{b: big},
		{b: marshal(t, unkeyable)},
		{b: append(bytes.Clone(valid), ` {"x":1}`...)},
		{b: append(bytes.Clone(big), ` trailing`...)},
		{b: valid[:len(valid)/2]},
		{b: big[:len(big)/2]},
		{b: valid[:len(valid)/3], readErr: errors.New("link dropped after a third")},
		{b: big[:len(big)/3], readErr: errors.New("link dropped in a big body")},
	}
	for k := 0; k < 4; k++ {
		bodies = append(bodies, body{b: []byte(fmt.Sprintf(`{"schema":%c}`, 'A'+k))})
	}
	reader := func(b body) io.Reader {
		if b.readErr == nil {
			return bytes.NewReader(b.b)
		}
		return io.MultiReader(bytes.NewReader(b.b), errReader{b.readErr})
	}
	type reply struct {
		code      int
		key, body string
	}
	replyOf := func(w *httptest.ResponseRecorder) reply {
		return reply{w.Code, w.Header().Get("Uavdc-Key"), w.Body.String()}
	}
	ref := stubServer(-1)
	want := make([]reply, len(bodies))
	for i, b := range bodies {
		want[i] = replyOf(send(ref.Handler(), reader(b)))
	}
	ref.Close(context.Background())
	for i := len(bodies) - 4; i < len(bodies); i++ {
		for j := len(bodies) - 4; j < i; j++ {
			if want[i] == want[j] {
				t.Fatalf("bodies %d and %d get the same 400 %q; each must quote its own byte", j, i, want[i].body)
			}
		}
	}

	s := stubServer(0)
	defer s.Close(context.Background())
	const clients, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(bodies); i++ {
				j := (c + i) % len(bodies)
				if got := replyOf(send(s.Handler(), reader(bodies[j]))); got != want[j] {
					errs <- fmt.Errorf("body %d: got status %d key %q body %.200q; the memo-disabled server gives %d %q %.200q",
						j, got.code, got.key, got.body, want[j].code, want[j].key, want[j].body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if counter(s, CounterBodyMemoHits) == 0 {
		t.Fatal("no repeat was a body-memo hit")
	}
}

// drainBodyBufs empties bodyBufs, as far as this goroutine can reach it,
// and returns the capacities of the buffers it held.
func drainBodyBufs() []int {
	var caps []int
	for {
		p, _ := bodyBufs.Get().(*[]byte)
		if p == nil {
			return caps
		}
		caps = append(caps, cap(*p))
	}
}

// TestBodyMemoGrownBufferNotPooled: a buffer of bodyPresize +
// bytes.MinRead bytes goes back to bodyBufs, and one that a body grew
// past that, with or without a Content-Length, never does.
func TestBodyMemoGrownBufferNotPooled(t *testing.T) {
	const limit = bodyPresize + bytes.MinRead
	// The race detector drops a Put at random, so a kept buffer may take
	// a few tries to show.
	kept := false
	for try := 0; try < 64 && !kept; try++ {
		drainBodyBufs()
		b := make([]byte, 0, limit)
		releaseBody(&b)
		kept = slices.Contains(drainBodyBufs(), limit)
	}
	if !kept {
		t.Fatal("a buffer of bodyPresize + bytes.MinRead bytes never went back to the pool")
	}

	big := bytes.Repeat([]byte(" "), 2*limit)
	drainBodyBufs()
	p, err := readBody(bytes.NewReader(big), int64(len(big)))
	if err != nil || len(*p) != len(big) || cap(*p) <= limit {
		t.Fatalf("readBody of %d bytes: len %d cap %d, %v; want the whole body in a grown buffer", len(big), len(*p), cap(*p), err)
	}
	releaseBody(p)
	s := stubServer(0)
	defer s.Close(context.Background())
	send(s.Handler(), bytes.NewReader(big))
	send(s.Handler(), io.MultiReader(bytes.NewReader(big))) // no Content-Length
	for _, c := range drainBodyBufs() {
		if c > limit {
			t.Fatalf("the pool holds a %d-byte buffer, over bodyPresize + bytes.MinRead = %d", c, limit)
		}
	}
}

// discardWriter is a ResponseWriter that drops what it is sent.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestBodyMemoHitAllocsFlat: a body-memo hit served through Handler()
// allocates no more for a ~150 KB body than for a ~37 KB one, since the
// body is read into a pooled buffer. It compares the median over many
// hits, as the race detector drops a pooled buffer at random.
func TestBodyMemoHitAllocsFlat(t *testing.T) {
	s := stubServer(0)
	defer s.Close(context.Background())
	h := s.Handler()
	perHit := func(sensors int, side float64) (size int, bytesPerHit uint64) {
		body := marshal(t, Request{
			Schema:   Schema,
			Scenario: SpecOf(uavdc.RandomScenario(sensors, side, 1)),
			UAV:      UAVSpecOf(uavdc.DefaultUAV()),
		})
		if w := send(h, bytes.NewReader(body)); w.Code != http.StatusOK {
			t.Fatalf("%d sensors: status %d: %s", sensors, w.Code, w.Body)
		}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/plan", rd)
		w := discardWriter{http.Header{}}
		hits := counter(s, CounterBodyMemoHits)
		const n = 101
		samples := make([]uint64, n)
		var before, after runtime.MemStats
		for i := range samples {
			rd.Reset(body)
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			samples[i] = after.TotalAlloc - before.TotalAlloc
		}
		if got := counter(s, CounterBodyMemoHits) - hits; got != n {
			t.Fatalf("%d sensors: %d body-memo hits over %d requests", sensors, got, n)
		}
		slices.Sort(samples)
		return len(body), samples[n/2]
	}
	smallSize, small := perHit(500, 1000)
	largeSize, large := perHit(2000, 2000)
	t.Logf("%d-byte body: %d B per hit; %d-byte body: %d B per hit", smallSize, small, largeSize, large)
	if smallSize < 30<<10 || largeSize < 4*smallSize-(8<<10) {
		t.Fatalf("bodies of %d and %d bytes, want ~37 KB and ~150 KB", smallSize, largeSize)
	}
	if large > small+1024 {
		t.Fatalf("a memo hit allocates %d B for a %d-byte body and %d B for a %d-byte one; want no growth with the body", small, smallSize, large, largeSize)
	}
}
