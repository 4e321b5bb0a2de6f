// Command uavlint runs uavdc's static-analysis suite (internal/lint)
// over the module: repo-specific analyzers enforcing the determinism,
// float-safety, metric-naming, error-handling, unit-safety,
// lock-discipline, goroutine-lifecycle, wire-format, plan-purity and
// dead-export contracts that the dynamic test suite can only sample.
// See CONTRIBUTING.md ("Static analysis") for the analyzer list and the
// //uavdc:allow suppression grammar.
//
// Usage:
//
//	uavlint [flags] [./... | path prefixes]
//
//	-C dir        module root to lint (default ".")
//	-json         emit a uavdc-lint/2 JSON report instead of text
//	-all          also print suppressed diagnostics (text mode)
//	-summary      append a one-line finding/timing summary, with
//	              per-analyzer wall time (text mode)
//	-list         list the analyzers (name order) and exit
//	-analyzers    comma-separated subset of analyzers to run (default
//	              all); an unknown name is a usage error. Directives for
//	              analyzers outside the subset are neither applied nor
//	              judged stale.
//
// With no arguments (or "./...") the whole module is linted. Other
// arguments restrict output to packages whose module-relative directory
// equals or sits under one of the given prefixes ("internal/core",
// "cmd/...").
//
// Exit status: 0 when clean, 1 when any non-suppressed diagnostic was
// reported, 2 on usage or load errors.
package main

import (
	"flag"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"uavdc/internal/errw"
	"uavdc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, lint.Load))
}

// run is the testable entry point; load loads and type-checks the module
// rooted at -C (lint.Load outside tests).
func run(args []string, stdout, stderr io.Writer, load func(dir string) (*lint.Module, error)) int {
	fs := flag.NewFlagSet("uavlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "module root to lint")
		jsonOut  = fs.Bool("json", false, "emit a uavdc-lint/2 JSON report")
		showAll  = fs.Bool("all", false, "also print suppressed diagnostics")
		summary  = fs.Bool("summary", false, "append a one-line finding/timing summary")
		listOnly = fs.Bool("list", false, "list the analyzers (name order) and exit")
		subset   = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outw, errs := errw.New(stdout), errw.New(stderr)
	analyzers := lint.All()
	sort.Slice(analyzers, func(i, j int) bool { return analyzers[i].Name < analyzers[j].Name })
	if *subset != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		seen := map[string]bool{}
		for _, name := range strings.Split(*subset, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				errs.Printf("uavlint: -analyzers: unknown analyzer %q (run uavlint -list for the suite)\n", name)
				return 2
			}
			if !seen[name] {
				seen[name] = true
				picked = append(picked, a)
			}
		}
		if len(picked) == 0 {
			errs.Printf("uavlint: -analyzers: empty subset\n")
			return 2
		}
		analyzers = picked
	}
	if *listOnly {
		for _, a := range analyzers {
			outw.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		if outw.Err() != nil {
			return 2
		}
		return 0
	}

	start := time.Now() //uavdc:allow nodeterminism wall time only feeds the lint report's elapsed field, never planner output
	mod, err := load(*dir)
	if err != nil {
		errs.Printf("uavlint: %v\n", err)
		return 2
	}
	diags, timings := lint.RunTimed(mod, analyzers)
	elapsed := time.Since(start) //uavdc:allow nodeterminism wall time only feeds the lint report's elapsed field, never planner output
	diags = filterByPrefix(diags, fs.Args())

	if *jsonOut {
		if err := lint.WriteJSON(stdout, mod.Path, diags, elapsed); err != nil {
			errs.Printf("uavlint: %v\n", err)
			return 2
		}
	} else {
		shown := diags
		if !*showAll {
			shown = lint.Active(diags)
		}
		if err := lint.WriteText(stdout, shown); err != nil {
			errs.Printf("uavlint: %v\n", err)
			return 2
		}
		if *summary {
			if err := lint.WriteSummary(stdout, diags, timings, elapsed); err != nil {
				errs.Printf("uavlint: %v\n", err)
				return 2
			}
		}
	}
	if active := lint.Active(diags); len(active) > 0 {
		errs.Printf("uavlint: %d non-suppressed diagnostic(s)\n", len(active))
		return 1
	}
	return 0
}

// filterByPrefix restricts diagnostics to the given module-relative
// path prefixes. No arguments, ".", or "./..." mean everything; a
// trailing "/..." on a prefix is accepted and ignored.
func filterByPrefix(diags []lint.Diagnostic, patterns []string) []lint.Diagnostic {
	var prefixes []string
	for _, p := range patterns {
		p = strings.TrimPrefix(p, "./")
		p = strings.TrimSuffix(p, "...")
		p = strings.TrimSuffix(p, "/")
		if p == "" || p == "." {
			return diags
		}
		prefixes = append(prefixes, p)
	}
	if len(prefixes) == 0 {
		return diags
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		for _, p := range prefixes {
			if d.Path == p || strings.HasPrefix(d.Path, p+"/") {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
