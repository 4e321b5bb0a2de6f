// Package viz renders missions as standalone SVG documents: the monitoring
// region, the sensor field (dot area ∝ stored volume), the depot, and each
// plan's tour polyline with hover-coverage circles at the stops. Pure
// stdlib; the output opens in any browser.
package viz

import (
	"fmt"
	"io"
	"math"

	"uavdc/internal/core"
	"uavdc/internal/errw"
	"uavdc/internal/sensornet"
)

// palette cycles across tours when rendering fleets.
var palette = []string{"#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"}

// widthPx is the image width in pixels; the height follows the region's
// aspect ratio.
const widthPx = 800

// Options tunes the rendering.
type Options struct {
	// CoverRadius draws a coverage circle of this many metres at every
	// stop; 0 disables the circles.
	CoverRadius float64
	// Title is drawn in the top-left corner.
	Title string
}

// WriteSVG renders the network and the given plans (one colour each).
func WriteSVG(w io.Writer, net *sensornet.Network, plans []*core.Plan, opts Options) error {
	width := widthPx
	rw, rh := net.Region.Width(), net.Region.Height()
	if rw <= 0 || rh <= 0 {
		return fmt.Errorf("viz: degenerate region")
	}
	scale := float64(width) / rw
	height := int(math.Ceil(rh * scale))
	// SVG y grows downward; flip so the region's y grows upward.
	x := func(v float64) float64 { return (v - net.Region.Min.X) * scale }
	y := func(v float64) float64 { return float64(height) - (v-net.Region.Min.Y)*scale }

	var maxData float64
	for _, s := range net.Sensors {
		if s.Data > maxData {
			maxData = s.Data
		}
	}
	if maxData == 0 {
		maxData = 1
	}

	// Error-sticky writer: the first write failure wins and later calls
	// become no-ops, so the happy path stays linear.
	ew := errw.New(w)
	ew.Printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	ew.Printf(`<rect width="%d" height="%d" fill="#fbfbf8" stroke="#888"/>`+"\n", width, height)

	// Sensors.
	ew.Printf("<g fill=\"#555\" fill-opacity=\"0.75\">\n")
	for _, s := range net.Sensors {
		r := 1.5 + 4*math.Sqrt(s.Data/maxData)
		ew.Printf(`<circle cx="%.1f" cy="%.1f" r="%.1f"/>`+"\n", x(s.Pos.X), y(s.Pos.Y), r)
	}
	ew.Printf("</g>\n")

	// Tours.
	for pi, plan := range plans {
		color := palette[pi%len(palette)]
		if len(plan.Stops) > 0 {
			ew.Printf(`<polyline fill="none" stroke="%s" stroke-width="2" stroke-opacity="0.9" points="`, color)
			ew.Printf("%.1f,%.1f ", x(plan.Depot.X), y(plan.Depot.Y))
			for i := range plan.Stops {
				ew.Printf("%.1f,%.1f ", x(plan.Stops[i].Pos.X), y(plan.Stops[i].Pos.Y))
			}
			ew.Printf("%.1f,%.1f", x(plan.Depot.X), y(plan.Depot.Y))
			ew.Printf("\"/>\n")
		}
		if opts.CoverRadius > 0 {
			ew.Printf(`<g fill="%s" fill-opacity="0.08" stroke="%s" stroke-opacity="0.35">`+"\n", color, color)
			for i := range plan.Stops {
				ew.Printf(`<circle cx="%.1f" cy="%.1f" r="%.1f"/>`+"\n",
					x(plan.Stops[i].Pos.X), y(plan.Stops[i].Pos.Y), opts.CoverRadius*scale)
			}
			ew.Printf("</g>\n")
		}
		// Stop markers.
		ew.Printf(`<g fill="%s">`+"\n", color)
		for i := range plan.Stops {
			ew.Printf(`<circle cx="%.1f" cy="%.1f" r="3"/>`+"\n", x(plan.Stops[i].Pos.X), y(plan.Stops[i].Pos.Y))
		}
		ew.Printf("</g>\n")
	}

	// Depot.
	ew.Printf(`<rect x="%.1f" y="%.1f" width="10" height="10" fill="#000"/>`+"\n",
		x(net.Depot.X)-5, y(net.Depot.Y)-5)

	if opts.Title != "" {
		ew.Printf(`<text x="10" y="22" font-family="sans-serif" font-size="16">%s</text>`+"\n", xmlEscape(opts.Title))
	}
	ew.Printf("</svg>\n")
	return ew.Err()
}

func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '&':
			out = append(out, "&amp;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
