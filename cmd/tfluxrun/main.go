// Command tfluxrun executes one suite benchmark on one TFlux platform and
// reports the sequential baseline, the parallel time and the speedup,
// verifying the parallel output against the sequential reference.
//
//	tfluxrun -bench MMULT -platform hard -size medium -kernels 16 -unroll 4
//
// Platforms: soft (native TFluxSoft), hard (cycle-level TFluxHard),
// cell (TFluxCell substrate), dist (TFluxDist over loopback TCP), virtual
// (soft-platform virtual-time model — see the internal/vtime docs).
// Benchmarks: TRAPEZ, MMULT, QSORT, SUSAN, FFT. Sizes follow Table 1 and
// depend on the platform.
//
// There are three kinds of run: a batch benchmark on one of the five
// platforms, a -connect submission to tfluxd, and a -stream-events run.
// Each flag is accepted by the runs that can honour it (the scope table
// in this file) and is an error, not ignored, on any other.
//
// Observability: -trace-out FILE writes a Chrome trace-event JSON file of
// the run (open it at ui.perfetto.dev or chrome://tracing); -metrics
// prints the runtime metrics registry and a per-lane event summary.
// Both work on the soft, hard, cell and dist platforms; -metrics also on
// streaming runs.
//
// Streaming mode: -stream-events N runs the EVENTFILTER streaming
// pipeline (decode → filter → aggregate over recycled window slots)
// instead of a batch benchmark, reporting achieved vs offered events/sec
// and p50/p95/p99 admission-to-retire latency. -stream-rate sets the
// offered rate in events/sec (0 = unbounded), -stream-window the events
// per window, -stream-slots the in-flight window budget, and
// -stream-policy block|shed the backpressure behaviour at slot
// exhaustion. -stream-faults injects an in-process chaos plan against
// pipeline stages (latency and stall kinds; see internal/stream), e.g.
//
//	tfluxrun -stream-events 100000 -stream-rate 50000 \
//	    -stream-faults 'stall-write:node=1:after=2000:dur=20ms'
//
// With the block policy (nothing shed) the run is verified bit-exactly
// against the sequential reference.
//
// Extras: -dot FILE writes the Synchronization Graph in Graphviz format
// and exits; -gantt (soft platform) prints an ASCII timeline chart; -vet
// runs the static verifier before dispatch and refuses to run a program
// with findings — the instance-level batch linter in batch mode, the
// whole-pipeline streaming analyzer (scratch lifetime, shed safety,
// pads, lifecycle, budget) in streaming mode (see internal/ddmlint and
// cmd/tfluxvet).
//
// TSU tuning: -tsu-shards N (soft platform) replaces the dedicated
// TSU-emulator goroutine with N kernel-stepped shards — parallel readiness
// bookkeeping.
//
// Data-plane tuning (dist platform): -nodes worker nodes share -kernels,
// which must be a positive multiple of it; -dist-batch, -dist-batch-bytes
// and -dist-window bound how many Execs coalesce per ExecBatch frame and
// how many instances may be in flight per node; -dist-no-cache disables
// the worker-side import-region cache so every dispatch ships full bytes.
//
// Fault injection (dist platform): -dist-faults applies a seeded chaos
// plan to the coordinator↔worker links and prints the fired faults and
// the failover summary, e.g.
//
//	tfluxrun -bench MMULT -platform dist -nodes 4 -kernels 8 \
//	    -dist-window 1 -dist-batch 1 \
//	    -dist-faults 'seed=7,plan=sever:node=1:after=1;sever:node=2:after=2:midframe=true'
//
// The run must still verify: severed nodes are declared dead and their
// in-flight DThreads re-dispatch to the survivors. (The tight window
// forces several frames per node so the faults land mid-run; with the
// default window a small benchmark coalesces into one frame per node.)
// See internal/chaos for the plan grammar.
//
// Client mode: -connect ADDR submits the benchmark to a running tfluxd
// daemon instead of hosting a platform locally, verifying the returned
// buffers against a local replica; -tenant names the submitting tenant.
// The daemon owns the fleet, so it takes only the flags that describe the
// program (-bench, -size, -kernels, -unroll) and -reps, plus -dist-faults,
// which injects faults on the client's own connection to the daemon.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"time"

	"tflux/internal/cellsim"
	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/dist"
	"tflux/internal/hardsim"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/stats"
	"tflux/internal/stream"
	"tflux/internal/vtime"
	"tflux/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// platforms maps each -platform value to its Table 1 size column.
var platforms = map[string]workload.Platform{
	"soft": workload.Native, "hard": workload.Simulated, "cell": workload.Cell,
	"dist": workload.Native, "virtual": workload.Native,
}

// runs names the kinds of run a command line can ask for, in the bit
// order of a runSet: a batch benchmark on one of the five platforms, a
// -connect submission to tfluxd, or a -stream-events run.
var runs = []string{"soft", "hard", "cell", "dist", "virtual", "connect", "stream"}

// runSet is a set of runs; bit i stands for runs[i].
type runSet uint8

const (
	onSoft runSet = 1 << iota
	onHard
	onCell
	onDist
	onVirtual
	onConnect
	onStream

	onBatch  = onSoft | onHard | onCell | onDist | onVirtual
	onTraced = onSoft | onHard | onCell | onDist // the platforms that record obs events
)

// scope lists, for every flag, the runs that accept it; a flag set on any
// other run is refused, never ignored. Rows are checked in order and the
// first refusal is the one reported, so the mode flags come first: a
// wrong mode explains every flag after it.
var scope = []struct {
	flag string
	runs runSet
}{
	{"tenant", onConnect},
	{"connect", onBatch | onConnect | onStream}, // empty: host the run locally
	{"stream-events", onBatch | onStream},       // 0: a batch run
	{"stream-rate", onStream},
	{"stream-window", onStream},
	{"stream-slots", onStream},
	{"stream-policy", onStream},
	{"stream-faults", onStream},
	{"bench", onBatch | onConnect},
	{"platform", onBatch},
	{"size", onBatch | onConnect},
	{"kernels", onBatch | onConnect | onStream},
	{"nodes", onDist},
	{"unroll", onBatch | onConnect},
	{"tsu-shards", onSoft},
	{"reps", onBatch | onConnect},
	{"dot", onBatch},
	{"trace-out", onTraced},
	{"metrics", onTraced | onStream},
	{"gantt", onSoft},
	{"vet", onBatch | onStream},
	{"dist-faults", onDist | onConnect}, // with -connect it wraps the client's own link
	{"dist-batch", onDist},
	{"dist-batch-bytes", onDist},
	{"dist-window", onDist},
	{"dist-no-cache", onDist},
}

// checkScope refuses the first set flag that a run of this kind does not
// accept, in the words that name what is wrong with the command line.
func checkScope(set map[string]bool, kind string) error {
	i := slices.Index(runs, kind)
	if i < 0 {
		return fmt.Errorf("unknown platform %q", kind)
	}
	for _, row := range scope {
		if !set[row.flag] || row.runs&(1<<i) != 0 {
			continue
		}
		switch {
		case kind == "connect":
			return fmt.Errorf("-%s configures a local coordinator and is incompatible with -connect (the daemon owns the fleet; tune it on the tfluxd side)", row.flag)
		case row.runs == onConnect:
			return fmt.Errorf("-%s only applies to -connect submissions", row.flag)
		case kind == "stream":
			return fmt.Errorf("-%s does not apply to streaming mode (-stream-events)", row.flag)
		case row.runs == onStream:
			return fmt.Errorf("-%s requires streaming mode (-stream-events N)", row.flag)
		}
		return fmt.Errorf("-%s is not supported on the %s platform", row.flag, kind)
	}
	return nil
}

// run is the testable command body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tfluxrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench        = fs.String("bench", "TRAPEZ", "benchmark: TRAPEZ|MMULT|QSORT|SUSAN|FFT")
		platform     = fs.String("platform", "soft", "platform: soft|hard|cell|dist|virtual")
		size         = fs.String("size", "small", "problem size: small|medium|large")
		kernels      = fs.Int("kernels", 4, "kernels / cores / SPEs (total across nodes for dist)")
		nodes        = fs.Int("nodes", 2, "worker nodes (dist platform)")
		unroll       = fs.Int("unroll", 8, "loop unroll factor (DThread granularity)")
		tsuShards    = fs.Int("tsu-shards", 0, "soft platform: shard the software TSU across N kernel-stepped shards (0 or 1 = the dedicated emulator goroutine)")
		reps         = fs.Int("reps", 3, "repetitions for native measurements (min taken)")
		dotOut       = fs.String("dot", "", "write the Synchronization Graph in DOT format to this file and exit")
		traceOut     = fs.String("trace-out", "", "write a Chrome trace-event JSON file of the run (soft|hard|cell|dist)")
		metrics      = fs.Bool("metrics", false, "print the metrics registry and per-lane event summary after the run")
		gantt        = fs.Bool("gantt", false, "print an ASCII per-kernel timeline chart (soft platform only)")
		vet          = fs.Bool("vet", false, "statically verify the program at instance granularity (ddmlint) and refuse to dispatch on findings")
		distFaults   = fs.String("dist-faults", "", "dist platform: seeded fault-injection plan, e.g. seed=7,plan=sever:node=1:after=40 (see internal/chaos)")
		distBatch    = fs.Int("dist-batch", 0, "dist platform: max Execs per ExecBatch frame (0 = default 32, negative = 1)")
		distBatchKB  = fs.Int64("dist-batch-bytes", 0, "dist platform: flush a node's batch at this many payload bytes (0 = default 256 KiB)")
		distWindow   = fs.Int("dist-window", 0, "dist platform: per-node in-flight instance window (0 = default 64, negative = 1)")
		distNoCache  = fs.Bool("dist-no-cache", false, "dist platform: disable the worker-side import-region cache (ship full bytes every dispatch)")
		connect      = fs.String("connect", "", "submit the benchmark to a running tfluxd daemon at this address instead of hosting a platform locally")
		tenant       = fs.String("tenant", "tfluxrun", "tenant name for -connect submissions")
		streamEvents = fs.Int64("stream-events", 0, "streaming mode: run the EVENTFILTER pipeline over this many events (0 = batch mode)")
		streamRate   = fs.Float64("stream-rate", 0, "streaming mode: offered injection rate in events/sec (0 = unbounded)")
		streamWindow = fs.Int("stream-window", 64, "streaming mode: events per window")
		streamSlots  = fs.Int("stream-slots", 8, "streaming mode: in-flight window budget (recycled SM slots)")
		streamPolicy = fs.String("stream-policy", "block", "streaming mode: backpressure at slot exhaustion: block|shed")
		streamFaults = fs.String("stream-faults", "", "streaming mode: in-process chaos plan against pipeline stages, e.g. stall-write:node=1:after=2000:dur=20ms")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tfluxrun:", err)
		return 1
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	kind := *platform
	switch {
	case *connect != "":
		kind = "connect"
	case *streamEvents > 0:
		kind = "stream"
	}
	if err := checkScope(set, kind); err != nil {
		return fail(err)
	}
	if kind == "dist" {
		// The nodes share the kernels evenly, so the header, job.Build and
		// the worker replicas must all see one total.
		if *nodes < 1 {
			return fail(fmt.Errorf("-nodes must be at least 1, not %d", *nodes))
		}
		if *kernels < *nodes || *kernels%*nodes != 0 {
			lo := max(*kernels / *nodes, 1) * *nodes
			return fail(fmt.Errorf("-kernels %d is not a positive multiple of -nodes %d (the dist platform gives every node the same number of kernels; the nearest totals are %d and %d)",
				*kernels, *nodes, lo, lo+*nodes))
		}
	}
	// A value outside its range is refused, not clamped: the header would
	// otherwise print a count the run does not use.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"kernels", *kernels, 1},
		{"unroll", *unroll, 1},
		{"tsu-shards", *tsuShards, 0},
	} {
		if f.val < f.min {
			return fail(fmt.Errorf("-%s must be at least %d, not %d", f.name, f.min, f.val))
		}
	}
	if kind == "stream" {
		return runStreamMode(*streamEvents, *streamRate, *streamWindow, *streamSlots,
			*kernels, *streamPolicy, *streamFaults, *vet, *metrics, stdout, stderr)
	}

	spec, err := workload.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	cls, err := workload.ParseSizeClass(*size)
	if err != nil {
		return fail(err)
	}
	sizes, ok := spec.Sizes(platforms[*platform])
	if !ok {
		return fail(fmt.Errorf("%s is not evaluated on platform %s (the paper's Figure 7 omits it)", spec.Name, *platform))
	}
	param := sizes[cls]
	if kind == "connect" {
		return runConnect(*connect, *tenant, spec, param, *kernels, *unroll, *reps, *distFaults, stdout, stderr)
	}
	job := spec.Make(param)
	fmt.Fprintf(stdout, "%s %s on %s, %d kernels, unroll %d\n", spec.Name, spec.SizeLabel(param), *platform, *kernels, *unroll)

	prog, err := job.Build(*kernels, *unroll)
	if err != nil {
		return fail(err)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return fail(err)
		}
		if err := core.WriteDOT(f, prog); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote synchronization graph to %s\n", *dotOut)
		return 0
	}
	if *vet {
		rep, err := ddmlint.Lint(prog)
		if err := vetGate(rep, err, stdout, stderr); err != nil {
			return fail(err)
		}
	}

	// Observability plumbing, shared by every platform: one recorder
	// feeding the Chrome trace exporter and the event summary, one
	// registry collecting counters and histograms.
	var rec *obs.Recorder
	var sink obs.Sink
	var reg *obs.Registry
	if *traceOut != "" || *metrics || *gantt {
		rec = obs.NewRecorder()
		sink = rec
	}
	if *metrics {
		reg = obs.NewRegistry()
	}
	lanes := *kernels // compute lanes in the exported trace

	// finish writes the trace file and metrics summary after a successful
	// run and emits the closing verify line.
	finish := func() int {
		if rec != nil && *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fail(err)
			}
			if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "trace:      %s (Chrome trace JSON, last rep; open at ui.perfetto.dev)\n", *traceOut)
		}
		if *metrics && reg != nil {
			fmt.Fprintln(stdout, "-- metrics --")
			if err := reg.WriteSummary(stdout); err != nil {
				return fail(err)
			}
			if rec != nil && rec.Len() > 0 {
				fmt.Fprintln(stdout, "-- lanes --")
				if err := obs.WriteSummary(stdout, rec.Events(), lanes); err != nil {
					return fail(err)
				}
			}
		}
		fmt.Fprintln(stdout, "verify:     ok")
		return 0
	}

	// The simulated platform counts cycles against a simulated baseline;
	// the others time the native sequential algorithm first.
	var seqT, parT time.Duration
	if platforms[*platform] != workload.Simulated {
		seqT = stats.Min(stats.Measure(*reps, job.RunSequential))
	}
	switch *platform {
	case "hard":
		seq, err := hardsim.Sequential(prog.Buffers, job.SequentialSteps(), hardsim.Config{})
		if err != nil {
			return fail(err)
		}
		res, err := hardsim.Run(prog, hardsim.Config{Cores: *kernels, Obs: sink, Metrics: reg})
		if err != nil {
			return fail(err)
		}
		if err := job.Verify(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "sequential: %d cycles\nparallel:   %d cycles\nspeedup:    %.2f\n",
			seq.Cycles, res.Cycles, stats.Speedup(float64(seq.Cycles), float64(res.Cycles)))
		fmt.Fprintf(stdout, "memory:     %d L2 misses, %d coherence misses, %d upgrades\n",
			res.Mem.L2Misses, res.Mem.CoherenceMisses, res.Mem.Upgrades)
		fmt.Fprintf(stdout, "tsu:        busy %d cycles, %d decrements\n", res.TSUBusy, res.TSU.Decrements)
		return finish()
	case "soft":
		var last *rts.Stats
		parT, err = bestOf(*reps, func() (time.Duration, error) {
			job.ResetOutput()
			st, err := rts.Run(prog, rts.Options{Kernels: *kernels, TSUShards: *tsuShards, Obs: sink, Metrics: reg})
			if err != nil {
				return 0, err
			}
			last = st
			return st.Elapsed, nil
		})
		if err != nil {
			return fail(err)
		}
		if last.Shards > 1 {
			fmt.Fprintf(stdout, "tsu:        %d shards, %d cross-shard decrement(s), per-shard fires %v\n",
				last.Shards, last.CrossShardDecrements, last.ShardFired)
		}
		if *gantt {
			if err := obs.WriteGantt(stdout, rec.Events(), *kernels, 72); err != nil {
				return fail(err)
			}
		}
	case "cell":
		parT, err = bestOf(*reps, func() (time.Duration, error) {
			job.ResetOutput()
			st, err := cellsim.Run(prog, job.SharedBuffers(), cellsim.Config{SPEs: *kernels, Obs: sink, Metrics: reg})
			if err != nil {
				return 0, err
			}
			return st.Elapsed, nil
		})
		if err != nil {
			return fail(err)
		}
	case "dist":
		// Each worker node runs a replica program; the coordinator's
		// replica owns the canonical buffers, so verification targets
		// the job that owns the buffer set the run hands back.
		kpn := *kernels / *nodes // exact: validated above
		lanes = *nodes           // one trace lane per worker node
		build, owner := workload.Replicas(spec, param, *kernels, *unroll)
		opt := dist.Options{Sink: sink, Metrics: reg,
			BatchCount: *distBatch, BatchBytes: *distBatchKB,
			Window: *distWindow, DisableRegionCache: *distNoCache}
		var chaosLog *chaos.Log
		if *distFaults != "" {
			plan, err := chaos.ParseSpec(*distFaults)
			if err != nil {
				return fail(err)
			}
			chaosLog = chaos.NewLog()
			opt = opt.FaultDrill(func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, chaosLog) })
		}
		st, svb, runErr := dist.RunLocalOpts(build, *nodes, kpn, opt)
		coord, buildErr := owner(svb)
		if err := errors.Join(buildErr, runErr); err != nil {
			return fail(err)
		}
		job = coord
		parT = st.Elapsed
		fmt.Fprintf(stdout, "dist:       %d nodes × %d kernels, %d messages in %d batches, %d bytes out, %d bytes in\n",
			*nodes, kpn, st.Messages, st.Batches, st.BytesOut, st.BytesIn)
		fmt.Fprintf(stdout, "regioncache: %d hit(s), %d miss(es), %d bytes saved\n",
			st.RegionCacheHits, st.RegionCacheMisses, st.BytesSaved)
		if chaosLog != nil {
			chaosLog.Report(stdout, "chaos:      %d fault(s) fired\n", "  node %d frame %d")
			fmt.Fprintf(stdout, "failover:   %d node(s) lost, %d re-dispatch(es), %d duplicate Done(s) discarded\n",
				st.Failovers, st.Retries, st.DupeDones)
			for i, nd := range st.Nodes {
				if nd.Lost {
					fmt.Fprintf(stdout, "  node %d lost: %s\n", i, nd.LostReason)
				}
			}
		}
	case "virtual":
		// Body durations are measured per run; repeat and take the
		// min so cold-start page faults do not pollute the model.
		parT, err = bestOf(*reps, func() (time.Duration, error) {
			job.ResetOutput()
			res, err := vtime.Run(prog, vtime.Config{Kernels: *kernels})
			if err != nil {
				return 0, err
			}
			return res.Makespan, nil
		})
		if err != nil {
			return fail(err)
		}
	}
	if err := job.Verify(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "sequential: %s\nparallel:   %s\nspeedup:    %.2f\n",
		stats.FormatDuration(seqT), stats.FormatDuration(parT),
		stats.Speedup(seqT.Seconds(), parT.Seconds()))
	return finish()
}

// vetGate is -vet's verdict on a lint result, batch or streaming: findings
// go to stderr and become the error that refuses dispatch; a clean report
// is one "vet: ok" line.
func vetGate(rep *ddmlint.Report, err error, stdout, stderr io.Writer) error {
	if err != nil {
		return err
	}
	if !rep.OK() {
		if err := rep.WriteText(stderr); err != nil {
			return err
		}
		return fmt.Errorf("%d ddmlint finding(s); refusing to dispatch", len(rep.Findings))
	}
	fmt.Fprintln(stdout, "vet:        ok")
	return nil
}

// bestOf runs once reps times (at least once) and returns the shortest
// duration it reported — the "several runs, best kept" rule of §5.
func bestOf(reps int, once func() (time.Duration, error)) (time.Duration, error) {
	best, err := once()
	for r := 1; r < reps && err == nil; r++ {
		var d time.Duration
		if d, err = once(); d < best {
			best = d
		}
	}
	return best, err
}

// runStreamMode runs the EVENTFILTER streaming pipeline and reports
// sustained-rate and tail-latency results. With the block policy and
// nothing shed, the checksum is verified against the sequential
// reference (the exactly-once contract); a shedding run skips it, since
// the reference covers all offered events. With vet, the streaming
// verifier (ddmlint.LintStream) runs against this exact configuration
// before dispatch and refuses to run a pipeline with findings,
// mirroring the batch -vet gate.
func runStreamMode(events int64, rate float64, window, slots, workers int, policy, faults string, vet, metrics bool, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tfluxrun:", err)
		return 1
	}
	pol, err := stream.ParsePolicy(policy)
	if err != nil {
		return fail(err)
	}
	ef, err := workload.NewEventFilter(core.Context(window), slots, 0x5eed)
	if err != nil {
		return fail(err)
	}
	pipe := ef.Pipeline()
	if vet {
		rep, err := ddmlint.LintStream(pipe, ddmlint.StreamConfig{
			Slots: slots, Workers: workers, Policy: pol,
		})
		if err := vetGate(rep, err, stdout, stderr); err != nil {
			return fail(err)
		}
	}
	opt := stream.Options{Slots: slots, Workers: workers, Policy: pol}
	if metrics {
		opt.Metrics = obs.NewRegistry()
	}
	var chaosLog *chaos.Log
	if faults != "" {
		plan, err := chaos.ParseSpec(faults)
		if err != nil {
			return fail(err)
		}
		chaosLog = chaos.NewLog()
		if opt.Delay, err = plan.StageDelay(len(pipe.Stages), chaosLog); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "streaming EVENTFILTER: %d events, window %d, %d slots, policy %s, %d workers\n",
		events, window, slots, pol, workers)
	st, err := rts.RunStream(pipe, stream.NewCountSource(events, rate), opt)
	if err != nil {
		return fail(err)
	}
	if rate > 0 {
		fmt.Fprintf(stdout, "offered:    %.0f ev/s\n", rate)
	} else {
		fmt.Fprintln(stdout, "offered:    unbounded")
	}
	fmt.Fprintf(stdout, "achieved:   %.0f ev/s (%d events, %d windows, %d padded, max %d windows in flight)\n",
		st.AchievedEPS, st.Events, st.Windows, st.Padded, st.MaxInFlight)
	fmt.Fprintf(stdout, "latency:    p50 %s p95 %s p99 %s (admission→retire)\n",
		stats.FormatDuration(st.P50), stats.FormatDuration(st.P95), stats.FormatDuration(st.P99))
	if pol == stream.Shed {
		fmt.Fprintf(stdout, "shed:       %d event(s) in %d window(s)\n", st.ShedEvents, st.ShedWindows)
	}
	chaosLog.Report(stdout, "chaos:      %d fault(s) fired\n", "  stage %d firing %d")
	if metrics {
		fmt.Fprintln(stdout, "-- metrics --")
		if err := opt.Metrics.WriteSummary(stdout); err != nil {
			return fail(err)
		}
	}
	if st.ShedEvents > 0 {
		fmt.Fprintln(stdout, "verify:     skipped (shed runs drop whole windows; the sequential reference covers all offered events)")
		return 0
	}
	if err := ef.Verify(events); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "verify:     ok")
	return 0
}
