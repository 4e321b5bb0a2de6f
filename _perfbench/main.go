// Command perfbench is the repository benchmark. One invocation runs one
// workload in this process, checks every output against an independent
// reference, and prints one JSON result line:
//
//	perfbench --workload paper-plan|hit-heavy|miss-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with every
// instrument off; with --trace 1 it prints the per-layer metrics, read
// from the obs counters, trace spans and op-log records the packages
// already emit plus timings taken around the calls into each layer.
// README.md gives each workload's rationale and the layer → metric →
// workload map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints the result line. A
// correctness failure still prints the line (with correct=false) but
// exits 1; an interrupt or set-up error exits 1 without a result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-plan | hit-heavy | miss-churn")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		scale:    paperScale,
		log:      stderr,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	scale    scale
	log      io.Writer
}

// runWorkload dispatches to the named workload.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	switch cfg.workload {
	case "paper-plan":
		return runPaperPlan(ctx, cfg)
	case "hit-heavy":
		return runHitHeavy(ctx, cfg)
	case "miss-churn":
		return runMissChurn(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-plan, hit-heavy or miss-churn)", cfg.workload)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: whether every output was
// correct, how many operations ran and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a correctness violation and logs why.
func (r *result) fail(log io.Writer, format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(log, "perfbench: check failed: "+format+"\n", args...)
}
