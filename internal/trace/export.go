package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"uavdc/internal/wire"
)

// Schema is the version tag of the JSONL trace format. The first line of
// a stream is a header object {"schema": Schema, "meta": {...}}; every
// following line is one record {"i", "k", "name", "d", "t", "attrs"},
// with "t" (wall seconds) omitted from stripped streams and "attrs"
// omitted when empty. encoding/json sorts map keys, so for a fixed
// record stream the bytes are deterministic.
const Schema = wire.Trace

type jsonHeader struct {
	Schema string         `json:"schema"`
	Meta   map[string]any `json:"meta,omitempty"`
}

type jsonRecord struct {
	Seq   int            `json:"i"`
	Kind  string         `json:"k"`
	Name  string         `json:"name"`
	Depth int            `json:"d"`
	Wall  *float64       `json:"t,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Num
		}
	}
	return m
}

// WriteJSONL exports the trace as line-delimited JSON under the
// uavdc-trace/1 schema. When strip is true the wall-time field is
// omitted from every record, yielding a byte-deterministic stream for a
// fixed instance.
func WriteJSONL(w io.Writer, tr Trace, strip bool) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonHeader{Schema: Schema, Meta: attrMap(tr.Meta)}); err != nil {
		return err
	}
	for i, r := range tr.Records {
		jr := jsonRecord{Seq: i, Kind: string(r.Kind), Name: r.Name, Depth: r.Depth, Attrs: attrMap(r.Attrs)}
		if !strip {
			t := r.Wall
			jr.Wall = &t
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace stream written by WriteJSONL. Attribute
// emission order is not preserved (JSON objects are unordered); attrs
// come back sorted by key. Stripped streams read back with Wall == 0.
func ReadJSONL(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Trace{}, err
		}
		return Trace{}, fmt.Errorf("trace: empty stream")
	}
	var hdr jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Trace{}, fmt.Errorf("trace: bad header: %w", err)
	}
	if hdr.Schema != Schema {
		return Trace{}, fmt.Errorf("trace: schema %q, want %q", hdr.Schema, Schema)
	}
	tr := Trace{Meta: attrsFromMap(hdr.Meta)}
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(string(sc.Bytes()))) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			return Trace{}, fmt.Errorf("trace: record %d: %w", line, err)
		}
		if len(jr.Kind) != 1 {
			return Trace{}, fmt.Errorf("trace: record %d: bad kind %q", line, jr.Kind)
		}
		rec := Record{Kind: Kind(jr.Kind[0]), Name: jr.Name, Depth: jr.Depth, Attrs: attrsFromMap(jr.Attrs)}
		if jr.Wall != nil {
			rec.Wall = *jr.Wall
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr, sc.Err()
}

// attrsFromMap rebuilds an attribute list from a decoded JSON object,
// sorted by key (the map has lost emission order).
func attrsFromMap(m map[string]any) []Attr {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := make([]Attr, 0, len(keys))
	for _, k := range keys {
		switch v := m[k].(type) {
		case string:
			out = append(out, Str(k, v))
		case float64:
			out = append(out, Num(k, v))
		case bool:
			if v {
				out = append(out, Num(k, 1))
			} else {
				out = append(out, Num(k, 0))
			}
		default:
			out = append(out, Str(k, fmt.Sprint(v)))
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// WriteChromeTrace exports the trace in the Chrome trace-event JSON
// array format, loadable in chrome://tracing or Perfetto. Spans become
// B/E duration events and point events become instant ("i") events, all
// on one pid/tid, with timestamps in microseconds since the epoch.
func WriteChromeTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, r := range tr.Records {
		ev := map[string]any{
			"name": r.Name,
			"ts":   r.Wall * 1e6,
			"pid":  1,
			"tid":  1,
		}
		switch r.Kind {
		case KindBegin:
			ev["ph"] = "B"
		case KindEnd:
			ev["ph"] = "E"
		default:
			ev["ph"] = "i"
			ev["s"] = "t"
		}
		if args := attrMap(r.Attrs); args != nil {
			ev["args"] = args
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
