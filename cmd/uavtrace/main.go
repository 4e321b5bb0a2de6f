// Command uavtrace analyzes uavdc-trace/1 JSONL mission traces (see
// EXPERIMENTS.md; produced by uavsim/uavexp -trace).
//
// Usage:
//
//	uavtrace [flags] trace.jsonl            summarize one trace
//	uavtrace [flags] a.jsonl b.jsonl        diff two traces (modulo times)
//
//	-top     number of slowest spans to list (default 10)
//	-chrome  also convert the (single) input to a Chrome trace-event JSON
//	         file at this path, loadable in chrome://tracing / Perfetto
//
// The summary reports per-phase time attribution (total and self), the
// top-k slowest spans, and the mission event timeline with per-leg energy
// deltas. The diff compares two traces record by record ignoring wall
// times — two runs of the same instance at different worker counts must
// compare equal — and exits 1 when they differ, listing the first
// divergence and per-record-name count deltas. "-" reads a trace from
// stdin.
package main

import (
	"flag"
	"io"
	"os"
	"sort"
	"strings"

	"uavdc/internal/errw"
	"uavdc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with its own FlagSet,
// reads/writes the given streams, and returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uavtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top    = fs.Int("top", 10, "number of slowest spans to list")
		chrome = fs.String("chrome", "", "convert the input to a Chrome trace-event JSON file at this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outw, errs := errw.New(stdout), errw.New(stderr)

	load := func(path string) (trace.Trace, error) {
		if path == "-" {
			return trace.ReadJSONL(stdin)
		}
		f, err := os.Open(path)
		if err != nil {
			return trace.Trace{}, err
		}
		defer func() { _ = f.Close() }() // read-only; close cannot lose data
		return trace.ReadJSONL(f)
	}

	switch fs.NArg() {
	case 1:
		tr, err := load(fs.Arg(0))
		if err != nil {
			errs.Println("uavtrace:", err)
			return 2
		}
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				errs.Println("uavtrace:", err)
				return 2
			}
			if err := trace.WriteChromeTrace(f, tr); err != nil {
				_ = f.Close() // best-effort cleanup; the write already failed
				errs.Println("uavtrace:", err)
				return 2
			}
			if err := f.Close(); err != nil {
				errs.Println("uavtrace:", err)
				return 2
			}
			outw.Printf("wrote %s\n", *chrome)
		}
		var sb strings.Builder
		trace.Summarize(tr, *top).WriteText(&sb)
		outw.Print(sb.String())
		if outw.Err() != nil {
			return 2
		}
		return 0
	case 2:
		a, err := load(fs.Arg(0))
		if err != nil {
			errs.Println("uavtrace:", err)
			return 2
		}
		b, err := load(fs.Arg(1))
		if err != nil {
			errs.Println("uavtrace:", err)
			return 2
		}
		d := trace.Diff(a, b)
		if d.Equal {
			outw.Printf("traces are identical modulo timestamps (%d records)\n", len(a.Records))
			return 0
		}
		outw.Printf("traces differ at record %d: %s\n", d.FirstDivergence, d.Detail)
		if len(d.CountDelta) > 0 {
			keys := make([]string, 0, len(d.CountDelta))
			for k := range d.CountDelta {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			outw.Println("record count deltas (a - b):")
			for _, k := range keys {
				outw.Printf("  %-40s %+d\n", k, d.CountDelta[k])
			}
		}
		return 1
	default:
		errs.Println("usage: uavtrace [-top n] [-chrome out.json] trace.jsonl [other.jsonl]")
		return 2
	}
}
