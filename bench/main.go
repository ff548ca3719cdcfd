// Command bench is the repository benchmark: four closed-loop workloads
// over the TFlux stack, each run for a fixed time, verified against the
// sequential references, and reported as the metrics BENCHMARK.json
// declares. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace, aa int
	var manifestPath string
	fs.StringVar(&c.workload, "workload", "", "workload to run: soft-finegrain, platform-sweep, serve-warm or serve-cold (with -aa also: all)")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the generated inputs (recorded in the output)")
	fs.Float64Var(&c.seconds, "seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json; 3 with -quick)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run printing the per-layer metrics")
	fs.BoolVar(&c.quick, "quick", false, "smoke run: 3 s measured, warm-up ÷ 10; NOT comparable with full runs")
	fs.IntVar(&aa, "aa", 0, "A/A study: run the workload as two interleaved sets of N runs of this binary and compare the sets (5 is the README's study)")
	fs.StringVar(&manifestPath, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&c.outDir, "out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace != 0

	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if c.seconds <= 0 {
		c.seconds = float64(m.RunSeconds)
		if c.quick {
			c.seconds = 3
		}
	}
	if aa > 0 {
		return runAA(&c, m, aa, manifestPath, stdout, stderr)
	}
	w, err := workloadByName(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := run(&c, w, m, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run performs one run and prints its report: the environment, the
// human-readable detail, then the result as one JSON object on the last
// line. It returns an error when the run could not complete or its
// outputs were wrong.
func run(c *config, w *workloadDef, m *manifest, stdout io.Writer) error {
	// Everything is sized for two cores; pin the scheduler to match
	// whatever the host offers.
	runtime.GOMAXPROCS(2)
	host, _ := os.Hostname()
	fmt.Fprintf(stdout, "tflux bench: workload=%s seed=%d seconds=%g trace=%t quick=%t\n", w.name, c.seed, c.seconds, c.trace, c.quick)
	fmt.Fprintf(stdout, "host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if c.quick {
		fmt.Fprintln(stdout, "QUICK RUN: smoke numbers, not comparable with full runs")
	}

	var out *outcome
	var err error
	decls := m.EndToEnd
	if c.trace {
		decls = m.PerLayer
		out, err = runTraced(c, w, stdout)
	} else {
		out, err = runPlain(c, w, stdout)
	}
	if err != nil {
		return err
	}
	metrics, err := report(decls, out.values)
	if err != nil {
		return err
	}
	if c.trace {
		for _, d := range decls {
			fmt.Fprintf(stdout, "%-44s %14.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
		}
	}
	line, err := json.Marshal(resultLine{
		Correct:   out.problem == nil && out.failed == 0,
		Attempted: out.attempted, Failed: out.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	if out.problem != nil {
		fmt.Fprintln(stdout, "INCORRECT:", out.problem)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return out.problem
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one (a checkout without .git does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
