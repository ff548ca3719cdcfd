// Command tfluxvet statically verifies DDM programs at instance
// granularity. It builds the named suite benchmarks (or all of them) and
// runs the ddmlint verifier: exact per-context Ready Counts, dead
// instances, instance-level cycles, out-of-bounds buffer regions, and —
// where Access models are declared — unordered conflicting accesses (DDM
// races).
//
//	tfluxvet                     # vet the whole benchmark suite
//	tfluxvet MMULT FFT           # vet specific benchmarks
//	tfluxvet -kernels 8 -unroll 64 -size medium MMULT
//	tfluxvet -dot graph.dot MMULT  # DOT graph with findings overlaid in red
//
// With -stream it instead verifies the built-in streaming workloads
// across window generations (ddmlint.LintStream): scratch-lifetime
// (recycled-slot stale reads), pad-soundness, shed-safety, the
// WindowedSM lifecycle proof, and the RunStream capacity budget. Each
// workload is linted under every backpressure policy it supports.
//
//	tfluxvet -stream                               # all streaming workloads
//	tfluxvet -stream -window 64 -slots 8 eventfilter
//
// Exit status is 0 when every program is clean, 1 when any program has
// findings or fails to build, 2 on usage errors. See internal/ddmlint for
// what each check proves and its caveats.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tfluxvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size    = fs.String("size", "small", "problem size: small|medium|large")
		kernels = fs.Int("kernels", 4, "kernels the program is built for")
		unroll  = fs.Int("unroll", 8, "loop unroll factor (DThread granularity)")
		dotOut  = fs.String("dot", "", "write the Synchronization Graph in DOT format, findings highlighted (single benchmark only)")
		strm    = fs.Bool("stream", false, "verify the built-in streaming workloads across window generations instead of the batch suite")
		window  = fs.Int("window", 0, "with -stream: events per window (0 = workload default)")
		slots   = fs.Int("slots", 0, "with -stream: window-slot budget (0 = runtime default)")
		workers = fs.Int("workers", 0, "with -stream: firing workers assumed by the budget check (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tfluxvet:", err)
		return 1
	}
	// A flag that belongs to the other mode is refused, as tfluxrun
	// refuses it, not ignored. The value says whether the flag is a
	// streaming one.
	modal := map[string]bool{
		"window": true, "slots": true, "workers": true,
		"size": false, "kernels": false, "unroll": false, "dot": false,
	}
	var misuse string
	fs.Visit(func(f *flag.Flag) {
		forStream, ok := modal[f.Name]
		switch {
		case !ok || forStream == *strm || misuse != "":
		case forStream:
			misuse = fmt.Sprintf("-%s requires streaming mode (-stream)", f.Name)
		default:
			misuse = fmt.Sprintf("-%s does not apply to streaming mode (-stream)", f.Name)
		}
	})
	if misuse != "" {
		fmt.Fprintln(stderr, "tfluxvet:", misuse)
		return 2
	}
	if *strm {
		return runStream(fs.Args(), *window, *slots, *workers, stdout, stderr)
	}

	cls, err := workload.ParseSizeClass(*size)
	if err != nil {
		fmt.Fprintln(stderr, "tfluxvet:", err)
		return 2
	}

	var specs []workload.Spec
	if fs.NArg() == 0 {
		specs = workload.Suite()
	} else {
		for _, name := range fs.Args() {
			spec, err := workload.ByName(name)
			if err != nil {
				fmt.Fprintln(stderr, "tfluxvet:", err)
				return 2
			}
			specs = append(specs, spec)
		}
	}
	if *dotOut != "" && len(specs) != 1 {
		fmt.Fprintln(stderr, "tfluxvet: -dot wants exactly one benchmark")
		return 2
	}

	bad := 0
	for _, spec := range specs {
		sizes, ok := spec.Sizes(workload.Native)
		if !ok {
			sizes, _ = spec.Sizes(workload.Simulated)
		}
		job := spec.Make(sizes[cls])
		p, err := job.Build(*kernels, *unroll)
		if err != nil {
			return fail(fmt.Errorf("%s: build: %v", spec.Name, err))
		}
		rep, err := ddmlint.Lint(p)
		if err != nil {
			// The program did not even validate; that is a finding too.
			fmt.Fprintf(stdout, "ddmlint: %q: invalid program: %v\n", spec.Name, err)
			bad++
			continue
		}
		if err := rep.WriteText(stdout); err != nil {
			return fail(err)
		}
		if !rep.OK() {
			bad++
		}
		if *dotOut != "" {
			f, err := os.Create(*dotOut)
			if err != nil {
				return fail(err)
			}
			if err := core.WriteDOTHighlight(f, p, rep.Highlight()); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote synchronization graph to %s\n", *dotOut)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runStream verifies the named streaming workloads (default: all) under
// every backpressure policy each supports.
func runStream(names []string, window, slots, workers int, stdout, stderr io.Writer) int {
	var specs []workload.StreamSpec
	if len(names) == 0 {
		specs = workload.StreamSuite()
	} else {
		for _, name := range names {
			spec, err := workload.StreamByName(name)
			if err != nil {
				fmt.Fprintln(stderr, "tfluxvet:", err)
				return 2
			}
			specs = append(specs, spec)
		}
	}
	bad := 0
	for _, spec := range specs {
		p, err := spec.Make(core.Context(window), slots)
		if err != nil {
			fmt.Fprintf(stderr, "tfluxvet: %s: build: %v\n", spec.Name, err)
			bad++
			continue
		}
		for _, pol := range spec.Policies {
			rep, err := ddmlint.LintStream(p, ddmlint.StreamConfig{
				Slots:   slots,
				Workers: workers,
				Policy:  pol,
			})
			if err != nil {
				fmt.Fprintf(stdout, "ddmlint: %q (%s): invalid pipeline: %v\n", spec.Name, pol, err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "stream %q under the %s policy:\n", spec.Name, pol)
			if err := rep.WriteText(stdout); err != nil {
				fmt.Fprintln(stderr, "tfluxvet:", err)
				return 1
			}
			if !rep.OK() {
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
