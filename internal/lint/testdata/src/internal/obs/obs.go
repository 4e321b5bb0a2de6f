// Package obs is a miniature stand-in for the real internal/obs: it
// carries exactly the method names the obsnames analyzer keys on.
package obs

// Rec records metrics.
type Rec struct{}

// Cell is a recorded handle.
type Cell struct{}

// Counter returns the named counter.
func (Rec) Counter(name string) Cell { return Cell{} }

// Histogram returns the named histogram.
func (Rec) Histogram(name string, bounds []float64) Cell { return Cell{} }

// Gauge returns the named gauge.
func (Rec) Gauge(name string) Cell { return Cell{} }

// Add records n.
func (Cell) Add(n int64) {}
