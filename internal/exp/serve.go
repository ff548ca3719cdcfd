package exp

import (
	"fmt"
	"net"
	"sync"

	"tflux/internal/dist"
	"tflux/internal/obs"
	"tflux/internal/serve"
	"tflux/internal/workload"
)

// Serve measures the service layer (tfluxd) end to end: streams of
// programs submitted by concurrent tenants onto one shared 4-node
// fleet, reporting sustained programs/sec and the daemon's own
// admission-to-completion latency quantiles (linearly interpolated).
// Every configuration runs twice — a cold pass with the admission cache
// disabled (every submission resolves, lints and builds from scratch;
// specs ship in full to every worker) and a warm pass with the cache on
// (compile-once / run-many) — and two workload shapes bracket what the
// content-addressed program cache can and cannot buy:
//
//   - TRAPEZ small / unroll 512: execution-bound (admission is ~10µs of
//     a ~10ms program). Cold and warm must agree — the cache's
//     no-regression baseline.
//   - FFT 32 / unroll 1: compile-bound (the ddmlint admission gate
//     walks the dense butterfly arc structure for ~10ms while the 128
//     dispatched instances execute in ~2ms). Warm submissions skip
//     resolve + lint + table construction entirely, so this is where
//     compile-once/run-many pays.
//
// Row reuse follows Dist's convention of carrying protocol-cost
// quantities in the timing columns: Seq is the p50 latency, Par the p99
// (seconds), and Speedup the sustained programs/sec; Mode is "cold" or
// "warm". Each tenant's final outcome is verified against a local
// replica job (deterministic inputs make the replica byte-comparable);
// any program failure aborts the experiment, and each workload's cold
// and warm result bytes must agree.
func Serve(o Options) ([]Row, error) {
	total := 1000
	if o.Quick {
		total = 150
	}
	shapes := []struct {
		name   string
		unroll int
	}{
		{"TRAPEZ", 512}, // execution-bound: cache must not regress it
		{"FFT", 1},      // compile-bound: cache must win
	}
	var rows []Row
	for _, shape := range shapes {
		ws, err := workload.ByName(shape.name)
		if err != nil {
			return nil, err
		}
		sizes, _ := ws.Sizes(workload.Native)
		param := sizes[workload.Small]
		spec := dist.ProgramSpec{Name: ws.Name, Param: param, Kernels: serveNodes * serveKernelsPerNode, Unroll: shape.unroll}

		// Cold pass: private registry so its counters don't pollute the
		// caller's, cache disabled.
		coldSnap, coldBytes, err := servePass(ws, spec, total, -1, obs.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("%s cold pass: %w", ws.Name, err)
		}
		// Warm pass: the caller's registry (this is the configuration
		// the daemon ships with) and the default cache.
		warmSnap, warmBytes, err := servePass(ws, spec, total, 0, o.Metrics)
		if err != nil {
			return nil, fmt.Errorf("%s warm pass: %w", ws.Name, err)
		}
		if warmSnap.CacheHits == 0 {
			return nil, fmt.Errorf("%s warm pass recorded no cache hits (misses %d)", ws.Name, warmSnap.CacheMisses)
		}
		if coldBytes != warmBytes {
			return nil, fmt.Errorf("%s: cold and warm passes produced different result bytes", ws.Name)
		}

		row := func(mode string, snap serve.Snapshot) Row {
			return Row{
				Experiment: "serve", Benchmark: ws.Name, Platform: "tfluxd",
				Size: ws.SizeLabel(param), Class: workload.Small,
				Kernels: spec.Kernels, Unroll: spec.Unroll,
				Seq: snap.P50.Seconds(), Par: snap.P99.Seconds(),
				Unit: "s (p50/p99)", Mode: mode,
				Speedup: snap.ProgramsPerSec,
			}
		}
		o.progress("serve %s/%s: cold %.1f programs/sec (p50 %v, p99 %v) → warm %.1f programs/sec (p50 %v, p99 %v), %d cache hits / %d misses",
			ws.Name, ws.SizeLabel(param),
			coldSnap.ProgramsPerSec, coldSnap.P50, coldSnap.P99,
			warmSnap.ProgramsPerSec, warmSnap.P50, warmSnap.P99,
			warmSnap.CacheHits, warmSnap.CacheMisses)
		rows = append(rows, row("cold", coldSnap), row("warm", warmSnap))
	}
	return rows, nil
}

const (
	serveTenants        = 4
	serveWindow         = 8
	serveNodes          = 4
	serveKernelsPerNode = 2
)

// servePass stands up one daemon (cache capacity as given; negative
// disables), drives the tenant load through it, verifies every tenant's
// final outcome, and returns the daemon's snapshot plus a fingerprint of
// the final result bytes for cold/warm equivalence checking.
func servePass(ws workload.Spec, spec dist.ProgramSpec, total, cacheCap int, reg *obs.Registry) (serve.Snapshot, string, error) {
	var zero serve.Snapshot

	resolver := serve.WorkloadResolver()
	flt, wait, err := dist.NewLocalFleet(serveNodes, serveKernelsPerNode, resolver, dist.Options{Metrics: reg})
	if err != nil {
		return zero, "", err
	}
	srv, err := serve.New(flt, serve.Options{
		Resolver:     resolver,
		MaxPrograms:  2 * serveNodes,
		MaxQueue:     serveTenants * serveWindow,
		TenantQuota:  2 * serveWindow,
		ProgramCache: cacheCap,
		Metrics:      reg,
	})
	if err != nil {
		flt.Close() //nolint:errcheck
		wait()
		return zero, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck
		flt.Close() //nolint:errcheck
		wait()
		return zero, "", err
	}
	go srv.Serve(ln) //nolint:errcheck // returns when ln closes
	defer func() {
		ln.Close()  //nolint:errcheck
		srv.Close() //nolint:errcheck
		flt.Close() //nolint:errcheck
		wait()
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, serveTenants)
	finals := make([]*serve.Outcome, serveTenants)
	perTenant := total / serveTenants
	for ten := 0; ten < serveTenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			c, err := serve.Dial(ln.Addr().String(), fmt.Sprintf("tenant-%d", ten))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close() //nolint:errcheck
			var last *serve.Outcome
			inflight := make([]*serve.Pending, 0, serveWindow)
			drainOne := func() error {
				p := inflight[0]
				inflight = inflight[1:]
				out, err := p.Wait()
				if err != nil {
					return err
				}
				if out.Err != "" {
					return fmt.Errorf("program failed: %s", out.Err)
				}
				last = out
				return nil
			}
			for i := 0; i < perTenant; i++ {
				p, err := c.Submit(spec, nil)
				if err != nil {
					errCh <- fmt.Errorf("tenant %d: %w", ten, err)
					return
				}
				inflight = append(inflight, p)
				if len(inflight) == serveWindow {
					if err := drainOne(); err != nil {
						errCh <- fmt.Errorf("tenant %d: %w", ten, err)
						return
					}
				}
			}
			for len(inflight) > 0 {
				if err := drainOne(); err != nil {
					errCh <- fmt.Errorf("tenant %d: %w", ten, err)
					return
				}
			}
			// Verify the tenant's final outcome against a local replica.
			job := ws.Make(spec.Param)
			if _, err := job.Build(spec.Kernels, spec.Unroll); err != nil {
				errCh <- err
				return
			}
			if err := serve.VerifyReplica(job, last.Regions); err != nil {
				errCh <- fmt.Errorf("tenant %d: %w", ten, err)
				return
			}
			finals[ten] = last
		}(ten)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return zero, "", err
	}

	snap := srv.Snapshot()
	if snap.Completed != int64(serveTenants*perTenant) || snap.Failed != 0 {
		return zero, "", fmt.Errorf("serve: completed/failed = %d/%d, want %d/0", snap.Completed, snap.Failed, serveTenants*perTenant)
	}
	// Fingerprint the final result bytes (deterministic workload → must
	// be identical across passes, cached or not).
	var fp string
	for _, out := range finals {
		for _, r := range out.Regions {
			fp += fmt.Sprintf("%s:%d:%x;", r.Buffer, r.Offset, r.Data)
		}
	}
	return snap, fp, nil
}
