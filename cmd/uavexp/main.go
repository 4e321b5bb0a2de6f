// Command uavexp regenerates the paper's evaluation figures (Section VII):
// Fig. 3 (Algorithm 1 vs benchmark over the energy capacity, no-overlap
// problem), Fig. 4 (Algorithms 2/3 vs benchmark over the grid resolution
// δ), and Fig. 5 (Algorithms 2/3 vs benchmark over the energy capacity).
// Each run prints both panels — (a) collected volume, (b) running time —
// and can additionally emit long-form CSV.
//
// Usage:
//
//	uavexp [flags]
//
//	-fig       fig3 | fig4 | fig5 | all | ext-altitude | ext-fleet | ext (default all)
//	-preset    tiny | reduced | paper | papertight | full (default reduced)
//	-instances override the number of network instances per point
//	-seed      override the experiment seed
//	-csv       write long-form CSV to this file (appends all figures)
//	-md        render markdown tables instead of aligned text
//	-metrics   attach the obs instrumentation layer and print a (c) panel of
//	           per-point counter totals after each figure
//	-trace     write a flight-recorder trace of the whole run (uavdc-trace/1
//	           JSONL; analyze with uavtrace) to this file
//	-tracedetail  include per-candidate scan events in the trace
//	-cpuprofile   write a pprof CPU profile to this file
//	-memprofile   write a pprof heap profile to this file
//
// The paper preset matches Section VII-A exactly (500 sensors, 1 km²,
// 15 instances, E = 3–9×10⁵ J, δ = 5–30 m) and takes CPU-hours; reduced
// preserves every qualitative shape in seconds. full is one paper-scale
// instance at δ = 5 m; with -cpuprofile it is the profiling entry point:
//
//	uavexp -preset full -fig fig4 -instances 1 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"uavdc/internal/errw"
	"uavdc/internal/experiments"
	"uavdc/internal/prof"
	"uavdc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with its own FlagSet,
// writes to the given streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("uavexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "fig3 | fig4 | fig5 | all | ext | ext-*")
		preset    = fs.String("preset", "reduced", "tiny | reduced | paper | papertight | full")
		instances = fs.Int("instances", 0, "override instances per point (0 = preset default)")
		seed      = fs.Uint64("seed", 0, "override experiment seed (0 = preset default)")
		csvPath   = fs.String("csv", "", "write long-form CSV to this file")
		markdown  = fs.Bool("md", false, "render markdown tables instead of aligned text")
		metrics   = fs.Bool("metrics", false, "record obs counters and print the (c) instrumentation panel")
		tracePath = fs.String("trace", "", "write the flight-recorder trace (JSONL) to this file")
		traceDet  = fs.Bool("tracedetail", false, "include per-candidate scan events in the trace")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outw, errs := errw.New(stdout), errw.New(stderr)

	cfg, err := experiments.Preset(*preset)
	if err != nil {
		errs.Println("uavexp:", err)
		return 2
	}
	if *instances > 0 {
		cfg.Instances = *instances
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Metrics = *metrics
	if *tracePath != "" {
		cfg.Trace = trace.NewBuffer()
		cfg.Trace.SetDetail(*traceDet)
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := prof.Start(*cpuProf, *memProf)
		if err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				errs.Println("uavexp:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	figures, err := figureList(*fig)
	if err != nil {
		errs.Println("uavexp:", err)
		return 2
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		defer func() { _ = f.Close() }() // leak guard; the happy path closes with a check below
		csvFile = f
	}

	for i, name := range figures {
		tab, err := experiments.Run(name, cfg)
		if err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		if i > 0 {
			outw.Println()
		}
		render := tab.Render
		if *markdown {
			render = tab.WriteMarkdown
		}
		if err := render(stdout); err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		if *metrics && tab.HasMetrics() {
			outw.Println()
			if err := tab.RenderMetrics(stdout); err != nil {
				errs.Println("uavexp:", err)
				return 1
			}
		}
		if csvFile != nil {
			if err := tab.WriteCSV(csvFile); err != nil {
				errs.Println("uavexp:", err)
				return 1
			}
		}
	}
	if csvFile != nil {
		if err := csvFile.Close(); err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
	}
	if cfg.Trace != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		if err := trace.WriteJSONL(f, cfg.Trace.Snapshot(), false); err != nil {
			_ = f.Close() // best-effort cleanup; the write already failed
			errs.Println("uavexp:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			errs.Println("uavexp:", err)
			return 1
		}
		outw.Printf("\ntrace written to %s (%d records)\n", *tracePath, cfg.Trace.Len())
	}
	if outw.Err() != nil {
		return 1
	}
	return 0
}

func figureList(fig string) ([]string, error) {
	switch fig {
	case "all":
		return []string{"fig3", "fig4", "fig5"}, nil
	case "ext":
		return []string{"ext-altitude", "ext-fleet", "ext-robustness", "ext-decomposition"}, nil
	case "fig3", "fig4", "fig5", "ext-altitude", "ext-fleet", "ext-robustness", "ext-decomposition":
		return []string{fig}, nil
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
}
