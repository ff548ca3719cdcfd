package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string // where a traced run writes its trace file
}

// outcome is what a run measured. values holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; exact holds
// the counts that must not differ between the two.
type outcome struct {
	attempted, failed int
	// problem is the first failed op or the failed run-wide check; the
	// metrics are still reported, marked incorrect.
	problem error
	values  map[string]float64
	exact   map[string]int64
}

// setUps is how many times an untraced run sets the workload up; setup_s
// is their median, and the last set-up is the one measured against.
const setUps = 5

// shortWarm is the warm-up of a smoke run or a ledger pass: a tenth of the
// full one.
func shortWarm(w *workloadDef) int { return max(w.warmOps/10, 1) }

// warmOps returns the fixed warm-up length of the named workload.
func (c *config) warmOps(w *workloadDef) int {
	if c.quick {
		return shortWarm(w)
	}
	return w.warmOps
}

// setUp builds the workload's state and runs the fixed-count warm-up
// through it, returning the loop ready for measurement and the warm-up
// segment.
func (c *config) setUp(w *workloadDef, warmOps int, tracers []*tracer) (*loop, segStat, error) {
	inst, err := w.setup(c.seed)
	if err != nil {
		return nil, segStat{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	l := newLoop(inst, w.clients, tracers)
	warm := l.segment(warmOps, false, nil)
	if l.err != nil {
		err := fmt.Errorf("%s warm-up: %w", w.name, l.err)
		return nil, segStat{}, errors.Join(err, inst.close())
	}
	l.ops, l.failed = 0, 0
	return l, warm, nil
}

// finish checks the run-wide invariants and tears the instance down.
func finish(l *loop, w *workloadDef, tr *tracer) error {
	err := l.err
	if err == nil {
		err = l.inst.check(tr)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", w.name, err)
	}
	return errors.Join(err, l.inst.close())
}

// runPlain is the untraced run: set up (setUps times over), measure
// fixed-count segments until the time is up, verify, report the
// end-to-end metrics.
func runPlain(c *config, w *workloadDef, info io.Writer) (*outcome, error) {
	var l *loop
	var setupS, setupRel []float64 // each set-up in seconds, and in reference runs
	for i := 0; i < setUps; i++ {
		if l != nil {
			if err := l.inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var warm segStat
		var err error
		if l, warm, err = c.setUp(w, c.warmOps(w), nil); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		setupS = append(setupS, d.Seconds())
		setupRel = append(setupRel, float64(d)/float64(warm.refRun()))
	}

	ph := newPhase(w.clients, w.segOps, maxSegs(c.seconds))
	runtime.GC()
	bytes0, mallocs0 := memCounters()
	for start := time.Now(); time.Since(start).Seconds() < c.seconds; {
		ph.add(l, false)
	}
	bytes1, mallocs1 := memCounters()
	exact := l.inst.exact()
	problem := finish(l, w, nil)

	durs, refs, rel := pooled(ph.durs), pooled(ph.refs), ph.opRel()
	var cpu []float64
	for _, s := range ph.segs {
		cpu = append(cpu, s.cpuRelPerOp())
	}
	cq1, cmed, cq3 := quartiles(cpu)
	ops := float64(len(durs))
	out := &outcome{
		attempted: l.ops, failed: l.failed, problem: problem, exact: exact,
		values: map[string]float64{
			// A set-up's length in reference runs, times the fastest
			// reference run of the measured phase in seconds: the set-up
			// time on a quiet host.
			"setup_s":         median(setupRel) * refs[0] / 1e3,
			"op_rel":          quantile(rel, 0.5),
			"cpu_rel_per_op":  cmed,
			"alloc_kb_per_op": float64(bytes1-bytes0) / 1024 / ops,
			"allocs_per_op":   float64(mallocs1-mallocs0) / ops,
		},
	}

	fmt.Fprintf(info, "reference run    fastest %.4f ms, median %.4f ms (%d runs)\n", refs[0], quantile(refs, 0.5), len(refs))
	fmt.Fprintf(info, "setup_s          %.4f  (median of %d set-ups in reference runs × the fastest reference run; as timed %.4f s)\n",
		out.values["setup_s"], setUps, setupS)
	fmt.Fprintf(info, "op_rel           %.4f  (median over %d batches of %d ops; q1 %.4f, q3 %.4f; × the fastest reference run = %.4f ms per op on a quiet host; median op as timed %.4f ms)\n",
		out.values["op_rel"], len(rel), batchOps, quantile(rel, 0.25), quantile(rel, 0.75), out.values["op_rel"]*refs[0], quantile(durs, 0.5))
	fmt.Fprintf(info, "cpu_rel_per_op   %.4f  (median over %d segments of %d ops; q1 %.4f, q3 %.4f)\n", cmed, len(ph.segs), w.segOps*w.clients, cq1, cq3)
	fmt.Fprintf(info, "alloc_kb_per_op  %.3f\nallocs_per_op    %.2f\n", out.values["alloc_kb_per_op"], out.values["allocs_per_op"])
	fmt.Fprintf(info, "fail_ratio       %d/%d\n", l.failed, l.ops)
	printExact(info, exact)
	warnBimodal(info, durs)
	return out, nil
}

// maxSegs is room for four times the segments a run of the given length
// is expected to measure (segments are sized for ≈ 0.5 s).
func maxSegs(seconds float64) int { return int(4*seconds/0.5) + 1 }

// warnBimodal is the unimodality guard of every untraced run.
func warnBimodal(info io.Writer, sortedDurs []float64) {
	if r := halvesRatio(sortedDurs); r > 2 {
		fmt.Fprintf(info, "WARNING: the slower half of the ops took %.2f× the faster half: the op mix has gone bimodal and a median over it cannot be trusted\n", r)
	}
}

func printExact(info io.Writer, exact map[string]int64) {
	names := make([]string, 0, len(exact))
	for n := range exact {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(info, "exact %s = %d\n", n, exact[n])
	}
}

// runTraced is the traced run. The named workload alternates untraced and
// traced segments for the measured time, so the tracing overhead is a
// ratio of medians taken side by side; the other three workloads then
// each run a short traced pass and the isolation probes run last, so one
// trace holds the whole layer ledger whichever workload was named.
func runTraced(c *config, w *workloadDef, info io.Writer) (*outcome, error) {
	epoch := time.Now()
	newTracers := func(n int) []*tracer {
		ts := make([]*tracer, n)
		for i := range ts {
			ts[i] = newTracer(epoch, i)
		}
		return ts
	}

	named := newTracers(w.clients)
	l, _, err := c.setUp(w, c.warmOps(w), named)
	if err != nil {
		return nil, err
	}
	plain, traced := newPhase(w.clients, w.segOps, maxSegs(c.seconds)), newPhase(w.clients, w.segOps, maxSegs(c.seconds))
	runtime.GC()
	for start := time.Now(); time.Since(start).Seconds() < c.seconds; {
		plain.add(l, false)
		traced.add(l, true)
	}
	out := &outcome{attempted: l.ops, failed: l.failed, exact: make(map[string]int64)}
	maps.Copy(out.exact, l.inst.exact())
	out.problem = finish(l, w, named[0])

	ledger := append([]*tracer(nil), named...)
	for i := range workloads {
		o := &workloads[i]
		if o == w {
			continue
		}
		ts := newTracers(o.clients)
		ol, _, err := c.setUp(o, shortWarm(o), ts)
		if err != nil {
			return nil, err
		}
		ol.segment(o.ledgerOps, true, nil)
		maps.Copy(out.exact, ol.inst.exact())
		out.problem = errors.Join(out.problem, finish(ol, o, ts[0]))
		ledger = append(ledger, ts...)
	}
	probes := newTracer(epoch, 0)
	if err := runProbes(probes, c.seed); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	ledger = append(ledger, probes)

	spans, samples := mergeTraces(ledger)
	out.values = layerValues(samples, out.exact)

	pd, refs := pooled(plain.durs), pooled(plain.refs)
	prel, trel := quantile(plain.opRel(), 0.5), quantile(traced.opRel(), 0.5)
	var rate []float64
	for _, sg := range plain.segs {
		rate = append(rate, sg.opsPerSec())
	}
	rq1, rmed, rq3 := quartiles(rate)
	p90, p90at, p90n := tail(pd, 0.90)
	p99, p99at, p99n := tail(pd, 0.99)
	out.values["client.op_per_s"] = rmed
	out.values["client.op_ms_p50"] = quantile(pd, 0.5)
	out.values["client.op_ms_p90"] = p90
	out.values["client.op_ms_p99"] = p99
	out.values["client.op_ms_halves_ratio"] = halvesRatio(pd)
	out.values["host.ref_ms_min"] = refs[0]
	out.values["host.ref_ms_p50"] = quantile(refs, 0.5)
	out.values["trace.overhead_ratio"] = trel / prel
	var namedSpans int
	var opSelf []float64
	self := selfTimes(spans)
	for _, t := range named {
		namedSpans += len(t.spans)
	}
	for _, s := range spans[:namedSpans] { // the named workload's spans come first
		if s.Parent < 0 {
			opSelf = append(opSelf, float64(self[s.ID])/1e3)
		}
	}
	out.values["trace.spans_per_op"] = float64(namedSpans) / float64(len(opSelf))
	out.values["trace.op_self_us"] = median(opSelf)

	path, err := writeTrace(c.outDir, w.name, c.seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "trace: %d spans in %s\n", len(spans), path)
	fmt.Fprintf(info, "client.op_per_s is the median over %d untraced segments of %d ops, reference runs included (q1 %.3f, q3 %.3f); client.op_ms_p50 the median of %d untraced ops as timed\n",
		len(plain.segs), w.segOps*w.clients, rq1, rq3, len(pd))
	fmt.Fprintf(info, "client.op_ms_p90 is the %.4f quantile of those ops (%d beyond it); client.op_ms_p99 the %.4f quantile (%d beyond it)\n",
		p90at, p90n, p99at, p99n)
	fmt.Fprintf(info, "trace.overhead_ratio: traced op_rel %.4f over untraced %.4f, alternating segments\n", trel, prel)
	printExact(info, out.exact)
	warnBimodal(info, pd)
	printBudget(info, out.values)
	return out, nil
}

// serveProgs are the two programs of a serve op, by metric suffix.
var serveProgs = []string{"fft32", "trapez512"}

// layerValues turns the pooled samples into per-layer metric values: the
// median of each sampled metric, the exact counts as they are, and the
// few metrics that are arithmetic on those.
func layerValues(samples map[string][]float64, exact map[string]int64) map[string]float64 {
	v := make(map[string]float64, len(samples)+len(exact)+16)
	for name, xs := range samples {
		v[name] = median(xs)
	}
	for name, n := range exact {
		v[name] = float64(n)
	}
	// End-of-run daemon counts: one sample per daemon, summed.
	for _, name := range []string{"serve.completed", "serve.failed", "serve.rejected"} {
		v[name] = 0
		for _, x := range samples[name] {
			v[name] += x
		}
	}
	for _, p := range []string{"mmult", "susan"} {
		v["rts.speedup_vs_seq."+p] = v["workload.seq_ms."+p] / v["rts.run_ms."+p]
	}
	// What a submission's wait is not explained by: the fleet running the
	// program and, cold, the admission work measured in isolation. The
	// admission work should equal what a cold submission waits outside the
	// fleet (overhead = wait - exec) beyond what a warm one does; the
	// op-level difference is smaller, because while one client's
	// submission is being linted the other client has the fleet to itself.
	var admission, overhead float64
	for _, p := range serveProgs {
		adm := (v["serve.resolve_us."+p] + v["ddmlint.lint_us."+p] + v["tsu.tables_build_us."+p]) / 1e3
		admission += adm
		overhead += v["serve.cold.overhead_ms."+p] - v["serve.warm.overhead_ms."+p]
		v["serve.warm.unattributed_ms."+p] = v["serve.warm.submit_wait_ms."+p] - v["dist.fleet_run_ms."+p]
		v["serve.cold.unattributed_ms."+p] = v["serve.cold.submit_wait_ms."+p] - v["dist.fleet_run_cold_ms."+p] - adm
	}
	v["serve.admission_ms"] = admission
	v["serve.cold_minus_warm_ms"] = v["serve.cold.op_ms"] - v["serve.warm.op_ms"]
	v["serve.cold_minus_warm_overhead_ms"] = overhead
	v["serve.admission_explained_ratio"] = admission / overhead
	return v
}

// printBudget prints the time budget of one warm and one cold submission
// of each serve program: the ledger's first deliverable.
func printBudget(info io.Writer, v map[string]float64) {
	fmt.Fprintln(info, "submission budget, ms (medians; wait = exec + overhead; unattributed = wait - fleet_run [- admission, cold]):")
	for _, mode := range []string{"warm", "cold"} {
		fleet := "dist.fleet_run_ms."
		if mode == "cold" {
			fleet = "dist.fleet_run_cold_ms."
		}
		for _, p := range serveProgs {
			pre := "serve." + mode
			fmt.Fprintf(info, "  %s %-9s wait %.3f = exec %.3f + overhead %.3f | fleet_run %.3f, rts.run %.3f, resolve %.3f, lint %.3f, tables %.3f | unattributed %.3f\n",
				mode, p, v[pre+".submit_wait_ms."+p], v[pre+".exec_ms."+p], v[pre+".overhead_ms."+p],
				v[fleet+p], v["rts.run_ms."+p], v["serve.resolve_us."+p]/1e3, v["ddmlint.lint_us."+p]/1e3, v["tsu.tables_build_us."+p]/1e3,
				v[pre+".unattributed_ms."+p])
		}
	}
	fmt.Fprintf(info, "  cold - warm: op %.3f ms, overhead (wait - exec) %.3f ms; resolve + lint + tables over both programs = %.3f ms (%.2f of the overhead difference)\n",
		v["serve.cold_minus_warm_ms"], v["serve.cold_minus_warm_overhead_ms"], v["serve.admission_ms"], v["serve.admission_explained_ratio"])
}
