package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzServeRequest feeds arbitrary bytes through the decode step /plan
// uses and then through Request.Key. Nothing may panic, a body with
// anything but whitespace after its JSON value never gets a key, and a
// keyed request re-encoded with json.Marshal decodes and keys to the
// same key. Sent twice to /plan, the body gets that key both times (memo
// then key equals decode then key): the repeat is a body-memo hit when
// the body keyed, and a body that did not key never enters the memo.
func FuzzServeRequest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "request.golden"))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(testRequest(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), `{"not":"a request"} trailing junk`...))
	f.Add([]byte("{not json"))
	// −0 in fields the wire schema omits when zero.
	f.Add(bytes.Replace(golden, []byte(`"uav": {`), []byte(`"uav": {"climb_power_w": -0, "climb_rate_ms": -0,`), 1))
	f.Add(bytes.Replace(golden, []byte(`"options": {`), []byte(`"options": {"altitude_m": -0,`), 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		// An independent reading of where the first JSON value ends.
		trailing := false
		var first json.RawMessage
		dec := json.NewDecoder(bytes.NewReader(body))
		if dec.Decode(&first) == nil {
			trailing = len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
		}

		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			checkMemo(t, body, "")
			return
		}
		if trailing {
			t.Fatalf("decoded a body with trailing data: %q", body)
		}
		key, err := req.Key()
		if err != nil {
			checkMemo(t, body, "")
			return
		}
		checkMemo(t, body, key)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("Marshal of a keyed request: %v", err)
		}
		again, err := decodeRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-decode of %s: %v", b, err)
		}
		if got, err := again.Key(); err != nil || got != key {
			t.Fatalf("re-encoded request keys to %q, %v; want %q\nbody %s\nre-encoded %s", got, err, key, body, b)
		}
	})
}

// checkMemo sends body to /plan twice and checks that both responses
// carry key, the key decoding and keying the body gives ("" when either
// fails), and that the memo served the repeat exactly when the body keyed
// and its plan was cached.
func checkMemo(t *testing.T, body []byte, key string) {
	t.Helper()
	s := stubServer(0)
	defer s.Close(context.Background())
	var first int
	for i := 0; i < 2; i++ {
		w := send(s.Handler(), bytes.NewReader(body))
		if got := w.Header().Get("Uavdc-Key"); got != key {
			t.Fatalf("send %d: Uavdc-Key %q, decode then Key gives %q\nbody %q", i, got, key, body)
		}
		if i == 0 {
			first = w.Code
		} else if w.Code != first {
			t.Fatalf("repeat status %d, first %d\nbody %q", w.Code, first, body)
		}
	}
	var want int64
	if first == 200 {
		want = 1
	}
	if got := counter(s, CounterBodyMemoHits); got != want {
		t.Fatalf("serve.body_memo_hits = %d, want %d (status %d)\nbody %q", got, want, first, body)
	}
	if key == "" && s.memo.Len() != 0 {
		t.Fatalf("an unkeyed body entered the memo\nbody %q", body)
	}
}
