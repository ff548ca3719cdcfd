// Command tfluxd runs TFlux as a service: a long-lived coordinator
// daemon that hosts a worker fleet and accepts DDM program submissions
// from many clients over the TFluxDist binary protocol, multiplexing
// them onto the shared workers with per-tenant admission control and
// weighted fair scheduling.
//
//	tfluxd -listen 127.0.0.1:9307 -nodes 4 -kernels-per-node 2
//	tfluxrun -bench MMULT -size small -connect 127.0.0.1:9307
//
// The daemon self-hosts its fleet over loopback TCP (the same worker
// code a multi-machine deployment runs in separate processes) and
// resolves submitted specs against the paper's benchmark suite.
//
// Admission control: -max-programs bounds concurrently running
// programs, -max-queue the admission queue, -tenant-quota each tenant's
// in-flight total; -arena-mb sizes the buffer arena programs are carved
// from; -weights grants tenants weighted shares of the run slots, e.g.
// -weights team-a=3,team-b=1. Submissions are linted (ddmlint) at
// admission unless -no-lint.
//
// Observability: -report-every prints the dashboard (programs/sec,
// admission-to-completion latency quantiles, per-tenant queues)
// periodically; it is always printed once on shutdown. SIGINT/SIGTERM
// drains gracefully: no new admissions, queued programs fail with a
// shutdown Result, running programs complete.
//
// Fault injection: -faults applies a seeded chaos plan (see
// internal/chaos) to the coordinator↔worker links, with fast failure
// detection, to rehearse worker loss under live load.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tflux/internal/chaos"
	"tflux/internal/dist"
	"tflux/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// parseWeights parses "name=weight,name=weight" tenant shares.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	w := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("weights: %q is not name=weight", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("weights: %q needs a positive integer weight", part)
		}
		w[name] = n
	}
	return w, nil
}

// run is the testable daemon body; it returns the process exit code
// after a signal on sig completes the graceful drain.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("tfluxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:9307", "address to accept client submissions on")
		nodes       = fs.Int("nodes", 4, "worker nodes in the self-hosted fleet")
		kernelsPer  = fs.Int("kernels-per-node", 2, "kernels per worker node")
		maxPrograms = fs.Int("max-programs", 0, "max concurrently running programs (0 = 2x nodes)")
		maxQueue    = fs.Int("max-queue", 0, "max queued admissions (0 = default)")
		tenantQuota = fs.Int("tenant-quota", 0, "max in-flight programs per tenant (0 = default)")
		arenaMB     = fs.Int64("arena-mb", 0, "buffer arena size in MiB (0 = default 64)")
		weights     = fs.String("weights", "", "tenant scheduling weights, e.g. team-a=3,team-b=1")
		noLint      = fs.Bool("no-lint", false, "skip the ddmlint admission gate (runtime guards still apply)")
		progCache   = fs.Int("program-cache", 0, "admission-cache entries: resolved programs memoized across submissions (0 = default 64, negative disables)")
		reportEvery = fs.Duration("report-every", 0, "print the dashboard at this interval (0 = only on shutdown)")
		faults      = fs.String("faults", "", "seeded chaos plan for the worker links, e.g. seed=7,plan=sever:node=1:after=40 (see internal/chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tfluxd:", err)
		return 1
	}
	// A value outside its range is refused, not clamped: 0 selects an
	// admission default, and -arena-mb's bound keeps its byte count in
	// an int64.
	for _, f := range []struct {
		name     string
		val, min int64
	}{
		{"nodes", int64(*nodes), 1},
		{"kernels-per-node", int64(*kernelsPer), 1},
		{"max-programs", int64(*maxPrograms), 0},
		{"max-queue", int64(*maxQueue), 0},
		{"tenant-quota", int64(*tenantQuota), 0},
		{"arena-mb", *arenaMB, 0},
	} {
		if f.val < f.min {
			return fail(fmt.Errorf("-%s must be at least %d, not %d", f.name, f.min, f.val))
		}
	}
	if *arenaMB > math.MaxInt64>>20 {
		return fail(fmt.Errorf("-arena-mb must be at most %d, not %d", int64(math.MaxInt64>>20), *arenaMB))
	}
	if *reportEvery < 0 {
		return fail(fmt.Errorf("-report-every must be at least 0, not %v", *reportEvery))
	}
	w, err := parseWeights(*weights)
	if err != nil {
		return fail(err)
	}

	distOpt := dist.Options{}
	var chaosLog *chaos.Log
	if *faults != "" {
		plan, err := chaos.ParseSpec(*faults)
		if err != nil {
			return fail(err)
		}
		chaosLog = chaos.NewLog()
		distOpt = distOpt.FaultDrill(func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, chaosLog) })
	}

	resolver := serve.WorkloadResolver()
	flt, wait, err := dist.NewLocalFleet(*nodes, *kernelsPer, resolver, distOpt)
	if err != nil {
		return fail(err)
	}
	srv, err := serve.New(flt, serve.Options{
		Resolver:     resolver,
		MaxPrograms:  *maxPrograms,
		MaxQueue:     *maxQueue,
		TenantQuota:  *tenantQuota,
		ArenaBytes:   *arenaMB << 20,
		Weights:      w,
		DisableLint:  *noLint,
		ProgramCache: *progCache,
	})
	if err != nil {
		flt.Close() //nolint:errcheck
		wait()
		return fail(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close() //nolint:errcheck
		flt.Close() //nolint:errcheck
		wait()
		return fail(err)
	}
	fmt.Fprintf(stdout, "tfluxd: listening on %s\n", ln.Addr())
	fmt.Fprintf(stdout, "tfluxd: fleet %d node(s) x %d kernel(s), serving the benchmark suite\n", *nodes, *kernelsPer)
	go srv.Serve(ln) //nolint:errcheck // returns when ln closes

	var tick <-chan time.Time
	if *reportEvery > 0 {
		tk := time.NewTicker(*reportEvery)
		defer tk.Stop()
		tick = tk.C
	}
	for {
		select {
		case <-tick:
			srv.WriteDashboard(stdout) //nolint:errcheck
		case <-sig:
			fmt.Fprintln(stdout, "tfluxd: signal received, draining")
			ln.Close() //nolint:errcheck
			if err := srv.Close(); err != nil {
				fmt.Fprintln(stderr, "tfluxd: drain:", err)
			}
			flt.Close() //nolint:errcheck
			for i, werr := range wait() {
				if werr != nil {
					fmt.Fprintf(stdout, "tfluxd: node %d exited: %v\n", i, werr)
				}
			}
			chaosLog.Report(stdout, "tfluxd: chaos fired %d fault(s)\n", "  node %d frame %d")
			srv.WriteDashboard(stdout) //nolint:errcheck
			return 0
		}
	}
}
