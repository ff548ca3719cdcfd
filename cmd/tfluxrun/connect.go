package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"tflux/internal/chaos"
	"tflux/internal/dist"
	"tflux/internal/serve"
	"tflux/internal/stats"
	"tflux/internal/workload"
)

// runConnect executes the benchmark by submitting it to a tfluxd
// daemon: the spec goes over the wire, the daemon and its workers
// resolve it, and the Result's buffers are verified locally against a
// replica job (deterministic inputs make the replica byte-comparable).
// A -dist-faults plan composes with this mode by wrapping the client's
// own connection — the chaos the daemon must survive is then between
// client and service, not inside the fleet.
func runConnect(addr, tenant string, ws workload.Spec, param, kernels, unroll, reps int, faults string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tfluxrun:", err)
		return 1
	}
	// The local replica is built with the same decomposition the daemon
	// and its workers will use — auxiliary buffers (e.g. per-kernel
	// partials) are sized at Build time, and verification overlays the
	// daemon's result bytes onto them.
	job := ws.Make(param)
	if _, err := job.Build(kernels, unroll); err != nil {
		return fail(err)
	}
	seqT := stats.Min(stats.Measure(reps, job.RunSequential))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fail(fmt.Errorf("connect %s: %w", addr, err))
	}
	var chaosLog *chaos.Log
	if faults != "" {
		plan, err := chaos.ParseSpec(faults)
		if err != nil {
			conn.Close() //nolint:errcheck
			return fail(err)
		}
		chaosLog = chaos.NewLog()
		conn = plan.Wrap(0, conn, chaosLog)
	}
	cl := serve.NewClient(conn, tenant)
	defer cl.Close() //nolint:errcheck
	fmt.Fprintf(stdout, "%s %s via %s (tenant %s), unroll %d\n", ws.Name, ws.SizeLabel(param), addr, tenant, unroll)

	spec := dist.ProgramSpec{Name: ws.Name, Param: param, Kernels: kernels, Unroll: unroll}
	var last *serve.Outcome
	best, err := bestOf(reps, func() (time.Duration, error) {
		p, err := cl.Submit(spec, nil)
		if err != nil {
			return 0, err
		}
		if last, err = p.Wait(); err != nil {
			return 0, err
		}
		if last.Err != "" {
			return 0, fmt.Errorf("daemon ran the program but it failed: %s", last.Err)
		}
		return last.Elapsed, nil
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "daemon:     program %d, %d failover(s), %d re-dispatch(es)\n",
		last.Prog, last.Failovers, last.Retries)
	chaosLog.Report(stdout, "chaos:      %d fault(s) fired on the client link\n", "  frame %[2]d")

	if err := serve.VerifyReplica(job, last.Regions); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "sequential: %s\nparallel:   %s\nspeedup:    %.2f\n",
		stats.FormatDuration(seqT), stats.FormatDuration(best),
		stats.Speedup(seqT.Seconds(), best.Seconds()))
	fmt.Fprintln(stdout, "verify:     ok")
	return 0
}
