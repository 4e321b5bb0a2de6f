package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzServeRequest feeds arbitrary bytes through the decode step /plan
// uses and then through Request.Key. Nothing may panic, a body with
// anything but whitespace after its JSON value never gets a key, and a
// keyed request re-encoded with json.Marshal decodes and keys to the
// same key.
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
			return
		}
		if trailing {
			t.Fatalf("decoded a body with trailing data: %q", body)
		}
		key, err := req.Key()
		if err != nil {
			return
		}
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
