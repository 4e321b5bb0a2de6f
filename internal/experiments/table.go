package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"uavdc/internal/errw"
)

// Point is one (x, mean volume, mean runtime) measurement of one series.
type Point struct {
	// X is the swept parameter value (capacity in J or δ in m).
	X float64
	// Volume is the mean collected data volume over the instances, MB.
	Volume float64
	// VolumeCI is the 95% confidence half-width of Volume, MB.
	VolumeCI float64
	// Runtime is the mean planner wall time, seconds.
	Runtime float64
	// RuntimeCI is the 95% confidence half-width of Runtime, seconds.
	RuntimeCI float64
	// N is the number of instances averaged.
	N int
	// Counters holds the obs counter totals summed over the point's
	// instances; nil unless the sweep ran with Config.Metrics. Totals are
	// deterministic for a fixed configuration.
	Counters map[string]int64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is a regenerated figure: both the (a) volume panel and the (b)
// runtime panel of the paper's paired plots, in one structure.
type Table struct {
	// Figure identifies the experiment, e.g. "fig3".
	Figure string
	// Title describes it.
	Title string
	// XLabel names the swept parameter.
	XLabel string
	// XUnit is the display unit of X.
	XUnit  string
	Series []Series
}

// Render writes both panels as aligned text tables.
func (t *Table) Render(w io.Writer) error {
	if err := t.RenderVolumePanel(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return t.renderPanel(w, fmt.Sprintf("%s(b): running time (s)", t.Figure), func(p Point) string {
		return fmt.Sprintf("%.4f ±%.4f", p.Runtime, p.RuntimeCI)
	})
}

// RenderVolumePanel writes only the (a) collected-volume panel. Unlike the
// runtime panel its content is deterministic for a fixed configuration,
// which is what the golden regression tests lock.
func (t *Table) RenderVolumePanel(w io.Writer) error {
	return t.renderPanel(w, fmt.Sprintf("%s(a): collected data volume (MB)", t.Figure), func(p Point) string {
		return fmt.Sprintf("%.1f ±%.1f", p.Volume, p.VolumeCI)
	})
}

// counterNames returns the sorted union of counter names across every
// point of the series.
func (s *Series) counterNames() []string {
	seen := map[string]bool{}
	for _, p := range s.Points {
		for name := range p.Counters {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HasMetrics reports whether any point carries counter totals.
func (t *Table) HasMetrics() bool {
	for _, s := range t.Series {
		for _, p := range s.Points {
			if len(p.Counters) > 0 {
				return true
			}
		}
	}
	return false
}

// RenderMetrics writes the instrumentation panel: one aligned block per
// series, rows per swept x value, one column per obs counter (sorted by
// name). Series without counters are skipped; rendering nothing when the
// sweep ran without Config.Metrics.
func (t *Table) RenderMetrics(w io.Writer) error {
	if !t.HasMetrics() {
		return nil
	}
	ew := errw.New(w)
	ew.Printf("%s(c): instrumentation counters — %s\n", t.Figure, t.Title)
	for si := range t.Series {
		s := &t.Series[si]
		names := s.counterNames()
		if len(names) == 0 {
			continue
		}
		ew.Printf("series %s\n", s.Name)
		tw := tabwriter.NewWriter(ew, 2, 4, 2, ' ', 0)
		etw := errw.New(tw)
		etw.Printf("%s (%s)", t.XLabel, t.XUnit)
		for _, name := range names {
			etw.Printf("\t%s", name)
		}
		etw.Println()
		for _, p := range s.Points {
			etw.Printf("%g", p.X)
			for _, name := range names {
				etw.Printf("\t%d", p.Counters[name])
			}
			etw.Println()
		}
		if err := etw.Err(); err != nil {
			return err
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return ew.Err()
}

func (t *Table) renderPanel(w io.Writer, title string, cell func(Point) string) error {
	ew := errw.New(w)
	ew.Printf("%s — %s\n", title, t.Title)
	tw := tabwriter.NewWriter(ew, 2, 4, 2, ' ', 0)
	etw := errw.New(tw)
	etw.Printf("%s (%s)", t.XLabel, t.XUnit)
	for _, s := range t.Series {
		etw.Printf("\t%s", s.Name)
	}
	etw.Println()
	for i, x := range t.xValues() {
		etw.Printf("%g", x)
		for _, s := range t.Series {
			if i < len(s.Points) {
				etw.Printf("\t%s", cell(s.Points[i]))
			} else {
				etw.Print("\t-")
			}
		}
		etw.Println()
	}
	if err := etw.Err(); err != nil {
		return err
	}
	return tw.Flush()
}

func (t *Table) xValues() []float64 {
	for _, s := range t.Series {
		if len(s.Points) > 0 {
			xs := make([]float64, len(s.Points))
			for i, p := range s.Points {
				xs[i] = p.X
			}
			return xs
		}
	}
	return nil
}

// WriteCSV emits the long-form data: figure,series,x,volume,volume_ci,
// runtime,runtime_ci,n.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "series", "x", "volume_mb", "volume_ci", "runtime_s", "runtime_ci", "n"}); err != nil {
		return err
	}
	for _, s := range t.Series {
		for _, p := range s.Points {
			rec := []string{
				t.Figure,
				s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Volume, 'f', 3, 64),
				strconv.FormatFloat(p.VolumeCI, 'f', 3, 64),
				strconv.FormatFloat(p.Runtime, 'f', 6, 64),
				strconv.FormatFloat(p.RuntimeCI, 'f', 6, 64),
				strconv.Itoa(p.N),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown emits both panels as GitHub-flavoured markdown tables, the
// format EXPERIMENTS.md uses.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if err := t.mdPanel(w, fmt.Sprintf("%s(a): collected data volume (MB)", t.Figure), func(p Point) string {
		return fmt.Sprintf("%.1f ± %.1f", p.Volume, p.VolumeCI)
	}); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return t.mdPanel(w, fmt.Sprintf("%s(b): running time (s)", t.Figure), func(p Point) string {
		return fmt.Sprintf("%.4f ± %.4f", p.Runtime, p.RuntimeCI)
	})
}

func (t *Table) mdPanel(w io.Writer, title string, cell func(Point) string) error {
	ew := errw.New(w)
	ew.Printf("### %s — %s\n\n", title, t.Title)
	ew.Printf("| %s (%s) |", t.XLabel, t.XUnit)
	for _, s := range t.Series {
		ew.Printf(" %s |", s.Name)
	}
	ew.Print("\n|---|")
	for range t.Series {
		ew.Print("---|")
	}
	ew.Println()
	for i, x := range t.xValues() {
		ew.Printf("| %g |", x)
		for _, s := range t.Series {
			if i < len(s.Points) {
				ew.Printf(" %s |", cell(s.Points[i]))
			} else {
				ew.Print(" - |")
			}
		}
		ew.Println()
	}
	return ew.Err()
}

// String renders the table for debugging.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}
