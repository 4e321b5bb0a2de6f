package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"uavdc"
)

// BenchmarkPlanHits POSTs paper-scale /plan requests (500 sensors on
// 1 km²) through Handler() after each of four distinct instances was
// planned once, so every timed request is a plan-cache hit. "repeat"
// sends byte-identical bodies, which the body memo answers without
// decoding; "varied" alternates two field orders and gives every body a
// whitespace suffix no earlier body had, so each is read, digested,
// missed in the memo, decoded and keyed before its plan-cache hit: the
// memo's cost on traffic that does not repeat. Run with -benchmem (make
// bench-micro).
func BenchmarkPlanHits(b *testing.B) {
	const distinct, suffix = 4, 24
	// bodies[i] is instance i/2; odd i lists its fields in reverse order.
	bodies := make([][]byte, 2*distinct)
	for i := range bodies {
		req := Request{
			Schema:   Schema,
			Scenario: SpecOf(uavdc.RandomScenario(500, 1000, uint64(i/2+1))),
			UAV:      UAVSpecOf(uavdc.DefaultUAV()),
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 1 {
			body = reversedFields(b, body)
		}
		bodies[i] = body
	}
	for _, varied := range []bool{false, true} {
		name := "repeat"
		if varied {
			name = "varied"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Config{})
			h := s.Handler()
			for i := 0; i < len(bodies); i += 2 {
				if w := send(h, bytes.NewReader(bodies[i])); w.Code != http.StatusOK {
					b.Fatalf("warm-up: status %d: %s", w.Code, w.Body)
				}
			}
			memo := counter(s, CounterBodyMemoHits)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := bodies[2*(i%distinct)]
				if varied {
					// Alternate field orders, and let bit k of
					// i/distinct pick a space or a tab: a body no
					// earlier request of this instance sent.
					buf = append(buf[:0], bodies[2*(i%distinct)+(i/distinct)%2]...)
					for k := 0; k < suffix; k++ {
						buf = append(buf, " \t"[(i/distinct)>>k&1])
					}
					body = buf
				}
				if w := send(h, bytes.NewReader(body)); w.Code != http.StatusOK {
					b.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
				}
			}
			b.StopTimer()
			want := int64(b.N)
			if varied {
				want = 0
			}
			if got := counter(s, CounterBodyMemoHits) - memo; got != want {
				b.Fatalf("%d body memo hits over %d requests, want %d", got, b.N, want)
			}
			if err := s.Close(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// reversedFields re-encodes a JSON object with its top-level fields in
// reverse order.
func reversedFields(b *testing.B, body []byte) []byte {
	b.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil {
		b.Fatal(err)
	}
	var fields [][]byte
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			b.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			b.Fatal(err)
		}
		k, _ := json.Marshal(key)
		fields = append(fields, append(append(k, ':'), v...))
	}
	slices.Reverse(fields)
	return append(append([]byte{'{'}, bytes.Join(fields, []byte{','})...), '}')
}
