// Command tfluxbench regenerates the paper's evaluation tables and
// figures. The experiments are the entries of exp.Experiments (see
// DESIGN.md's per-experiment index for what each reproduces); -exp NAME
// runs one, -exp all (the default) every one in table order, and
// `tfluxbench -h` lists the names:
//
//	tfluxbench -exp fig5              # Figure 5: TFluxHard speedups
//	tfluxbench -exp all -quick        # everything, smallest configurations
//
// -json FILE additionally writes every produced row as a JSON array for
// machine consumption; FILE may be "-" for stdout. Every row is a speedup
// (seq, par, unit, speedup); service, streaming and data-plane numbers
// come from the repo benchmark (bench/README.md), not from here.
//
// The software-platform experiments (fig6, fig7 and unroll's soft and
// cell legs) run as the simulated machines of internal/vtime, in cycles
// that repeat exactly, unless the host has a CPU for every kernel plus the
// TSU emulator (-mode auto) or -mode wallclock asks for the wall clock;
// every other experiment is simulated and deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tflux/internal/exp"
	"tflux/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tfluxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		names[i] = e.Name
	}
	valid := strings.Join(names, "|") + "|all"
	var (
		which   = fs.String("exp", "all", "experiment: "+valid)
		quick   = fs.Bool("quick", false, "smallest sizes, fewest configurations (seconds instead of minutes)")
		reps    = fs.Int("reps", 0, "native repetitions per measurement (0 = default)")
		maxK    = fs.Int("maxkernels", 0, "cap kernel counts (0 = paper configurations)")
		verbose = fs.Bool("v", false, "print per-configuration progress")
		mode    = fs.String("mode", "auto", "software-platform timing: auto|wallclock|virtual")
		metrics = fs.Bool("metrics", false, "print a runtime metrics summary after each experiment")
		jsonOut = fs.String("json", "", "write machine-readable results (JSON rows) to this file; - for stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	timing, ok := map[string]exp.Mode{
		"auto": exp.ModeAuto, "wallclock": exp.ModeWallClock, "virtual": exp.ModeVirtual,
	}[*mode]
	if !ok {
		fmt.Fprintf(stderr, "tfluxbench: unknown mode %q\n", *mode)
		return 2
	}
	o := exp.Options{Quick: *quick, Reps: *reps, MaxKernels: *maxK, Mode: timing}
	if *verbose {
		o.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	selected := exp.Experiments
	if *which != "all" {
		selected = nil
		for _, e := range exp.Experiments {
			if e.Name == *which {
				selected = []exp.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "tfluxbench: unknown experiment %q (want %s)\n", *which, valid)
			return 2
		}
	}

	failed := false
	var allRows []exp.Row
	for _, e := range selected {
		if e.Text != nil {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", e.Title, e.Text())
			continue
		}
		oe := o
		if *metrics {
			// One registry per experiment so each summary stands alone.
			oe.Metrics = obs.NewRegistry()
		}
		rows, err := e.Rows(oe)
		if err != nil {
			fmt.Fprintf(stderr, "tfluxbench: %s: %v\n", e.Title, err)
			failed = true
			continue
		}
		allRows = append(allRows, rows...)
		fmt.Fprintf(stdout, "== %s ==\n%s", e.Title, exp.Format(rows))
		if e.Figure {
			fmt.Fprintln(stdout, exp.Summary(rows))
		}
		if *metrics {
			fmt.Fprintln(stdout, "-- metrics --")
			if err := oe.Metrics.WriteSummary(stdout); err != nil {
				fmt.Fprintf(stderr, "tfluxbench: %s: %v\n", e.Title, err)
				failed = true
				continue
			}
		}
		fmt.Fprintln(stdout)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, allRows, stdout); err != nil {
			fmt.Fprintf(stderr, "tfluxbench: %v\n", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeJSON writes the collected rows to path ("-" = stdout).
func writeJSON(path string, rows []exp.Row, stdout io.Writer) error {
	if path == "-" {
		return exp.WriteJSON(stdout, rows)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := exp.WriteJSON(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
