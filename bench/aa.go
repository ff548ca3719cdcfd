package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A study: each chosen workload is run 2N times by this
// same binary, every run with its own seed, alternately assigned to set A
// and set B. Since nothing differs between the sets, whatever separates
// their medians is noise — the floor under any regression bound. For each
// end-to-end metric it prints both set medians, their relative
// disagreement, and the spread of all 2N runs (the distance between the
// first and third quartile over the median, quartiles as Python's
// statistics.quantiles(n=4) computes them). It fails when a disagreement
// exceeds the metric's bound in BENCHMARK.json, or a spread does (the
// set-up time's spread is reported but not gated).
func runAA(c *config, m *manifest, n int, manifestPath string, stdout, stderr io.Writer) int {
	var chosen []*workloadDef
	if c.workload == "" || c.workload == "all" {
		for i := range workloads {
			chosen = append(chosen, &workloads[i])
		}
	} else {
		w, err := workloadByName(c.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		chosen = []*workloadDef{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "A/A study: 2 sets × %d runs × %g s, seeds %d..%d\n\n", n, c.seconds, c.seed, c.seed+int64(2*n)-1)
	fmt.Fprintln(stdout, "| workload | metric | unit | median A | median B | disagreement | spread of all runs | bound |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|")
	ok := true
	for _, w := range chosen {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(c.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
				"-trace", "0", "-manifest", manifestPath, "-out", c.outDir,
			}
			if c.quick {
				args = append(args, "-quick")
			}
			res, err := runChild(exe, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			for name, mv := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
			fmt.Fprintf(stderr, "%s run %d/%d done\n", w.name, i+1, 2*n)
		}
		for _, d := range m.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			disagree := math.Abs(ma-mb) / math.Min(ma, mb)
			q1, med, q3 := pyQuartiles(append(append([]float64(nil), a...), b...))
			spread := (q3 - q1) / med
			verdict := ""
			if disagree > d.Bound || (spread > d.Bound && d.Name != "setup_s") {
				verdict, ok = " **exceeds**", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4f | %.4f | %.2f %% | %.2f %% | %.0f %%%s |\n",
				w.name, d.Name, d.Unit, ma, mb, 100*disagree, 100*spread, 100*d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "\nA/A study FAILED: two sets of runs of the same binary disagree by more than a bound")
		return 1
	}
	fmt.Fprintln(stdout, "\nA/A study passed: every end-to-end metric repeats within its bound")
	return 0
}

// runChild runs the benchmark binary once and decodes the result line.
func runChild(exe string, args []string, stderr io.Writer) (*resultLine, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res resultLine
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run reported %d failed ops of %d, correct=%t", res.Failed, res.Attempted, res.Correct)
	}
	return &res, nil
}

// pyQuartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the pipeline that gates this benchmark computes spreads with.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
