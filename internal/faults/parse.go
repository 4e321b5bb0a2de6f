package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"uavdc/internal/geom"
)

// DefaultSpec is the standard moderate-severity schedule the bench harness
// and documentation examples use: a persistent 25 % headwind surcharge, a
// 10 % hover-drain surcharge, degraded bandwidth from the third executed
// stop onward, and a total upload blackout at stops 3–4. It is instance-
// independent (no zone, no per-sensor predicate), so the same spec applies
// to any scenario.
const DefaultSpec = "wind:legs=0-,factor=1.25;hover:stops=0-,factor=1.1;bw:stops=2-,factor=0.6;upfail:stops=3-4"

// Parse builds a Schedule from the -faults command-line grammar:
//
//	spec    := clause (';' clause)*
//	clause  := kind ':' kv (',' kv)*
//	kind    := wind | hover | upfail | bw | dropout | nohover | rand
//	kv      := key '=' value
//	range   := N | N-M | N-          (inclusive; trailing '-' is open)
//
// Clause keys by kind:
//
//	wind     legs=range  factor=F
//	hover    stops=range factor=F [sensor ignored]
//	bw       stops=range factor=F [sensor=V]
//	upfail   stops=range           [sensor=V]   (also: stop=N)
//	dropout  after=N               [sensor=V]
//	nohover  x=X y=Y r=R
//	rand     seed=S n=N [severity=F] [side=L]
//
// A rand clause expands deterministically into n concrete events (see
// Random); the same seed always replays bit-identically. The empty spec is
// the empty schedule. Corrupted specs return an error, never panic.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q has no kind (want kind:key=value,...)", clause)
		}
		kvs, err := parseKVs(rest)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		switch strings.TrimSpace(kind) {
		case "wind":
			ev := Event{Kind: KindWind, Sensor: AllSensors, Legs: AllRange, Factor: 1}
			if err := kvs.apply(map[string]func(string) error{
				"legs":   func(v string) (err error) { ev.Legs, err = parseRange(v); return },
				"factor": func(v string) (err error) { ev.Factor, err = parseFloat(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "hover":
			ev := Event{Kind: KindHoverDrain, Sensor: AllSensors, Stops: AllRange, Factor: 1}
			if err := kvs.apply(map[string]func(string) error{
				"stops":  func(v string) (err error) { ev.Stops, err = parseRange(v); return },
				"factor": func(v string) (err error) { ev.Factor, err = parseFloat(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "bw":
			ev := Event{Kind: KindBandwidth, Sensor: AllSensors, Stops: AllRange, Factor: 1}
			if err := kvs.apply(map[string]func(string) error{
				"stops":  func(v string) (err error) { ev.Stops, err = parseRange(v); return },
				"factor": func(v string) (err error) { ev.Factor, err = parseFloat(v); return },
				"sensor": func(v string) (err error) { ev.Sensor, err = parseInt(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "upfail":
			ev := Event{Kind: KindUploadFail, Sensor: AllSensors, Stops: AllRange}
			if err := kvs.apply(map[string]func(string) error{
				"stops": func(v string) (err error) { ev.Stops, err = parseRange(v); return },
				"stop": func(v string) error {
					n, err := parseInt(v)
					ev.Stops = Range{From: n, To: n}
					return err
				},
				"sensor": func(v string) (err error) { ev.Sensor, err = parseInt(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "dropout":
			ev := Event{Kind: KindDropout, Sensor: AllSensors, Stops: AllRange}
			if err := kvs.apply(map[string]func(string) error{
				"after": func(v string) error {
					n, err := parseInt(v)
					ev.Stops = Range{From: n, To: Open}
					return err
				},
				"sensor": func(v string) (err error) { ev.Sensor, err = parseInt(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "nohover":
			ev := Event{Kind: KindNoHover, Sensor: AllSensors}
			if err := kvs.apply(map[string]func(string) error{
				"x": func(v string) (err error) { ev.Zone.C.X, err = parseFloat(v); return },
				"y": func(v string) (err error) { ev.Zone.C.Y, err = parseFloat(v); return },
				"r": func(v string) (err error) { ev.Zone.R, err = parseFloat(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			s.Events = append(s.Events, ev)
		case "rand":
			var seed int64
			n := 0
			severity := 0.3
			side := 0.0
			if err := kvs.apply(map[string]func(string) error{
				"seed": func(v string) error {
					x, err := strconv.ParseInt(v, 10, 64)
					seed = x
					return err
				},
				"n":        func(v string) (err error) { n, err = parseInt(v); return },
				"severity": func(v string) (err error) { severity, err = parseFloat(v); return },
				"side":     func(v string) (err error) { side, err = parseFloat(v); return },
			}); err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
			if n < 1 || n > 64 {
				return nil, fmt.Errorf("faults: clause %q: n=%d outside 1..64", clause, n)
			}
			if !(severity > 0) || severity > 1 || math.IsNaN(severity) {
				return nil, fmt.Errorf("faults: clause %q: severity %v outside (0, 1]", clause, severity)
			}
			if side < 0 || math.IsNaN(side) || math.IsInf(side, 0) {
				return nil, fmt.Errorf("faults: clause %q: invalid side %v", clause, side)
			}
			r := Random(seed, n, severity, side)
			s.Events = append(s.Events, r.Events...)
		default:
			return nil, fmt.Errorf("faults: unknown clause kind %q (want wind, hover, upfail, bw, dropout, nohover, rand)", kind)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// String renders the schedule back into the spec grammar in canonical form
// (rand clauses were expanded at parse time, so the output is the literal
// event list). Parse(s.String()) reconstructs an identical schedule, and
// String is a fixed point: Parse(x).String() == Parse(Parse(x).String()).String().
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// String renders one event as a spec clause.
func (e Event) String() string {
	switch e.Kind {
	case KindWind:
		return fmt.Sprintf("wind:legs=%s,factor=%s", e.Legs, ftoa(e.Factor))
	case KindHoverDrain:
		return fmt.Sprintf("hover:stops=%s,factor=%s", e.Stops, ftoa(e.Factor))
	case KindBandwidth:
		if e.Sensor != AllSensors {
			return fmt.Sprintf("bw:stops=%s,factor=%s,sensor=%d", e.Stops, ftoa(e.Factor), e.Sensor)
		}
		return fmt.Sprintf("bw:stops=%s,factor=%s", e.Stops, ftoa(e.Factor))
	case KindUploadFail:
		if e.Sensor != AllSensors {
			return fmt.Sprintf("upfail:stops=%s,sensor=%d", e.Stops, e.Sensor)
		}
		return fmt.Sprintf("upfail:stops=%s", e.Stops)
	case KindDropout:
		if e.Sensor != AllSensors {
			return fmt.Sprintf("dropout:after=%d,sensor=%d", e.Stops.From, e.Sensor)
		}
		return fmt.Sprintf("dropout:after=%d", e.Stops.From)
	case KindNoHover:
		return fmt.Sprintf("nohover:x=%s,y=%s,r=%s", ftoa(e.Zone.C.X), ftoa(e.Zone.C.Y), ftoa(e.Zone.R))
	default:
		return fmt.Sprintf("unknown:kind=%d", int(e.Kind))
	}
}

// String renders a range in the spec grammar.
func (r Range) String() string {
	if r.To == Open {
		return fmt.Sprintf("%d-", r.From)
	}
	if r.To == r.From {
		return strconv.Itoa(r.From)
	}
	return fmt.Sprintf("%d-%d", r.From, r.To)
}

// Random generates a deterministic pseudo-random schedule of n events with
// the given severity in (0, 1]: wind surcharges up to 1+severity, hover
// drains up to 1+severity/2, bandwidth degradations down to 1−0.9·severity,
// upload failures, and dropouts. When side > 0 it may also place no-hover
// zones inside the side×side region. The same (seed, n, severity, side)
// always replays bit-identically.
func Random(seed int64, n int, severity, side float64) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Events: make([]Event, 0, n)}
	kinds := []Kind{KindWind, KindHoverDrain, KindBandwidth, KindUploadFail, KindDropout}
	if side > 0 {
		kinds = append(kinds, KindNoHover)
	}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ev := Event{Kind: k, Sensor: AllSensors}
		span := func() Range {
			from := rng.Intn(8)
			if rng.Intn(2) == 0 {
				return Range{From: from, To: Open}
			}
			return Range{From: from, To: from + rng.Intn(6)}
		}
		switch k {
		case KindWind:
			ev.Legs = span()
			ev.Factor = 1 + rng.Float64()*severity
		case KindHoverDrain:
			ev.Stops = span()
			ev.Factor = 1 + rng.Float64()*severity/2
		case KindBandwidth:
			ev.Stops = span()
			ev.Factor = 1 - 0.9*severity*rng.Float64()
		case KindUploadFail:
			ev.Stops = span()
			ev.Sensor = rng.Intn(64)
		case KindDropout:
			ev.Stops = Range{From: rng.Intn(10), To: Open}
			ev.Sensor = rng.Intn(64)
		case KindNoHover:
			ev.Zone = geom.Circle{
				C: geom.Pt(rng.Float64()*side, rng.Float64()*side),
				R: (0.05 + 0.15*rng.Float64()) * side,
			}
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// ftoa formats a float so that parsing it back returns the identical bits.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// kvList preserves clause key order while rejecting duplicates.
type kvList []struct{ key, val string }

func parseKVs(rest string) (kvList, error) {
	var kvs kvList
	seen := map[string]bool{}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q has no value (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("duplicate parameter %q", key)
		}
		seen[key] = true
		kvs = append(kvs, struct{ key, val string }{key, val})
	}
	return kvs, nil
}

// apply dispatches every parsed key to its setter, erroring on unknown keys.
func (kvs kvList) apply(setters map[string]func(string) error) error {
	for _, kv := range kvs {
		set, ok := setters[kv.key]
		if !ok {
			keys := make([]string, 0, len(setters))
			for k := range setters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("unknown parameter %q (want %s)", kv.key, strings.Join(keys, ", "))
		}
		if err := set(kv.val); err != nil {
			return fmt.Errorf("parameter %s=%s: %w", kv.key, kv.val, err)
		}
	}
	return nil
}

func parseRange(v string) (Range, error) {
	lo, hi, dash := strings.Cut(v, "-")
	from, err := parseInt(lo)
	if err != nil {
		return Range{}, err
	}
	if !dash {
		return Range{From: from, To: from}, nil
	}
	if strings.TrimSpace(hi) == "" {
		return Range{From: from, To: Open}, nil
	}
	to, err := parseInt(hi)
	if err != nil {
		return Range{}, err
	}
	if to < 0 {
		return Range{}, fmt.Errorf("negative range end %d", to)
	}
	return Range{From: from, To: to}, nil
}

func parseInt(v string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("invalid integer %q", v)
	}
	return n, nil
}

func parseFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q", v)
	}
	return f, nil
}
