// Command uavbench prints the deterministic bench ledger
// (experiments.Ledger) as JSON on stdout: the reduced preset's fig3–5
// panels (plan calls, collected volumes, counter totals), the
// fast-vs-reference speedup panel at the paper-scale full preset, the
// serve panel's counters, and the adaptive-execution fault panel. It
// takes no flags and records no timings, so its output is a pure
// function of the code:
//
//	go run ./cmd/uavbench | diff -u BENCH_LEDGER.json -
//
// is `make benchparity`, and `make ledger` rewrites BENCH_LEDGER.json.
// Timing lives in the _perfbench benchmark (`make bench`); profiling a
// figure driver is `uavexp -cpuprofile`.
package main

import (
	"flag"
	"io"
	"os"

	"uavdc/internal/errw"
	"uavdc/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, experiments.Ledger))
}

// run is the testable entry point: it rejects any argument, writes the
// document ledger builds to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer, ledger func() (*experiments.Bench, error)) int {
	fs := flag.NewFlagSet("uavbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errs := errw.New(stderr)
	if fs.NArg() > 0 {
		errs.Printf("uavbench: takes no arguments, got %q\n", fs.Args())
		return 2
	}
	b, err := ledger()
	if err != nil {
		errs.Println("uavbench:", err)
		return 1
	}
	if err := b.WriteJSON(stdout); err != nil {
		errs.Println("uavbench:", err)
		return 1
	}
	return 0
}
