package trace

import (
	"fmt"
	"sort"
	"strings"
)

// PhaseStat aggregates every span with one name.
type PhaseStat struct {
	Name  string
	Count int
	// Total is summed wall time; Self excludes time inside child spans.
	Total float64
	Self  float64
}

// SpanStat is one completed span instance, for the top-k listing.
type SpanStat struct {
	Name  string
	Seq   int
	Start float64
	Dur   float64
}

// MissionEvent is one "mission/..." event with its common attributes
// extracted for timeline rendering.
type MissionEvent struct {
	Seq     int
	Name    string
	Wall    float64
	TSim    float64
	Stop    int
	Battery float64
	Attrs   []Attr
}

// Summary is the analysis of one trace: per-phase attribution, the
// slowest spans, and the mission timeline with per-leg energy deltas.
type Summary struct {
	Meta    []Attr
	Records int
	Phases  []PhaseStat
	Slowest []SpanStat
	Mission []MissionEvent
	// EnergyByLeg attributes battery drops between consecutive mission
	// events carrying a battery_j attribute: EnergyByLeg[i] is the energy
	// spent arriving at Mission[i].
	EnergyByLeg []float64
	// Unbalanced counts Begin records with no matching End (a truncated
	// or mid-flight trace).
	Unbalanced int
}

func attrNum(attrs []Attr, key string) (float64, bool) {
	for _, a := range attrs {
		if a.Key == key && !a.IsStr {
			return a.Num, true
		}
	}
	return 0, false
}

// Summarize analyzes a trace via a single stack walk over the stream.
func Summarize(tr Trace, topK int) Summary {
	type open struct {
		name  string
		seq   int
		start float64
		child float64
	}
	var stack []open
	phases := map[string]*PhaseStat{}
	var spans []SpanStat
	sum := Summary{Meta: tr.Meta, Records: len(tr.Records)}

	for i, r := range tr.Records {
		switch r.Kind {
		case KindBegin:
			stack = append(stack, open{name: r.Name, seq: i, start: r.Wall})
		case KindEnd:
			if len(stack) == 0 {
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dur := r.Wall - top.start
			p, ok := phases[top.name]
			if !ok {
				p = &PhaseStat{Name: top.name}
				phases[top.name] = p
			}
			p.Count++
			p.Total += dur
			p.Self += dur - top.child
			if len(stack) > 0 {
				stack[len(stack)-1].child += dur
			}
			spans = append(spans, SpanStat{Name: top.name, Seq: top.seq, Start: top.start, Dur: dur})
		case KindEvent:
			if strings.HasPrefix(r.Name, "mission/") {
				me := MissionEvent{Seq: i, Name: r.Name, Wall: r.Wall, Stop: -1, Attrs: r.Attrs}
				if v, ok := attrNum(r.Attrs, "t_sim"); ok {
					me.TSim = v
				}
				if v, ok := attrNum(r.Attrs, "stop"); ok {
					me.Stop = int(v)
				}
				if v, ok := attrNum(r.Attrs, "battery_j"); ok {
					me.Battery = v
				}
				sum.Mission = append(sum.Mission, me)
			}
		}
	}
	sum.Unbalanced = len(stack)

	sum.Phases = make([]PhaseStat, 0, len(phases))
	for _, p := range phases {
		sum.Phases = append(sum.Phases, *p)
	}
	sort.Slice(sum.Phases, func(i, j int) bool {
		if sum.Phases[i].Total != sum.Phases[j].Total {
			return sum.Phases[i].Total > sum.Phases[j].Total
		}
		return sum.Phases[i].Name < sum.Phases[j].Name
	})

	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur
		}
		return spans[i].Seq < spans[j].Seq
	})
	if topK > 0 && len(spans) > topK {
		spans = spans[:topK]
	}
	sum.Slowest = spans

	sum.EnergyByLeg = make([]float64, len(sum.Mission))
	prev := -1.0
	for i, me := range sum.Mission {
		if _, ok := attrNum(me.Attrs, "battery_j"); ok {
			if prev >= 0 {
				sum.EnergyByLeg[i] = prev - me.Battery
			}
			prev = me.Battery
		}
	}
	return sum
}

// WriteText renders the summary as a stable, human-readable report.
func (s Summary) WriteText(w *strings.Builder) {
	fmt.Fprintf(w, "records: %d\n", s.Records)
	for _, a := range s.Meta {
		if a.IsStr {
			fmt.Fprintf(w, "meta %s = %s\n", a.Key, a.Str)
		} else {
			fmt.Fprintf(w, "meta %s = %g\n", a.Key, a.Num)
		}
	}
	if s.Unbalanced > 0 {
		fmt.Fprintf(w, "warning: %d unbalanced span(s)\n", s.Unbalanced)
	}
	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "\nphases (by total time):\n")
		fmt.Fprintf(w, "  %-36s %8s %12s %12s\n", "phase", "count", "total_s", "self_s")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-36s %8d %12.6f %12.6f\n", p.Name, p.Count, p.Total, p.Self)
		}
	}
	if len(s.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest spans:\n")
		for _, sp := range s.Slowest {
			fmt.Fprintf(w, "  #%-6d %-36s %12.6fs\n", sp.Seq, sp.Name, sp.Dur)
		}
	}
	if len(s.Mission) > 0 {
		fmt.Fprintf(w, "\nmission timeline:\n")
		fmt.Fprintf(w, "  %-18s %10s %6s %14s %14s\n", "event", "t_sim", "stop", "battery_j", "leg_energy_j")
		for i, me := range s.Mission {
			stop := ""
			if me.Stop >= 0 {
				stop = fmt.Sprintf("%d", me.Stop)
			}
			fmt.Fprintf(w, "  %-18s %10.1f %6s %14.1f %14.1f\n",
				strings.TrimPrefix(me.Name, "mission/"), me.TSim, stop, me.Battery, s.EnergyByLeg[i])
		}
	}
}

// DiffResult reports how two traces differ, ignoring wall times.
type DiffResult struct {
	// Equal is true when the stripped streams are identical.
	Equal bool
	// FirstDivergence is the sequence number of the first differing
	// record (-1 when Equal; min(len) when one stream is a prefix).
	FirstDivergence int
	// Detail describes the first divergence.
	Detail string
	// CountDelta maps record names whose occurrence counts differ to
	// (count in a) - (count in b).
	CountDelta map[string]int
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordEqualStripped compares two records ignoring Wall.
func recordEqualStripped(a, b Record) bool {
	return a.Kind == b.Kind && a.Name == b.Name && a.Depth == b.Depth && attrsEqual(a.Attrs, b.Attrs)
}

// Diff compares two traces modulo timestamps. Two runs of the same
// instance must diff Equal.
func Diff(a, b Trace) DiffResult {
	res := DiffResult{Equal: true, FirstDivergence: -1, CountDelta: map[string]int{}}
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		if !recordEqualStripped(a.Records[i], b.Records[i]) {
			res.Equal = false
			res.FirstDivergence = i
			res.Detail = fmt.Sprintf("record %d: %c %s (depth %d) != %c %s (depth %d)",
				i, a.Records[i].Kind, a.Records[i].Name, a.Records[i].Depth,
				b.Records[i].Kind, b.Records[i].Name, b.Records[i].Depth)
			break
		}
	}
	if res.Equal && len(a.Records) != len(b.Records) {
		res.Equal = false
		res.FirstDivergence = n
		res.Detail = fmt.Sprintf("stream lengths differ: %d != %d", len(a.Records), len(b.Records))
	}
	if !res.Equal {
		for _, r := range a.Records {
			res.CountDelta[string(r.Kind)+" "+r.Name]++
		}
		for _, r := range b.Records {
			res.CountDelta[string(r.Kind)+" "+r.Name]--
		}
		for k, v := range res.CountDelta {
			if v == 0 {
				delete(res.CountDelta, k)
			}
		}
	}
	return res
}
