package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, which must be sorted
// ascending, interpolating linearly between neighbours.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with the number of samples beyond it; p is capped at
// maxP (0.90 or 0.99 here), and falls below it only on short runs.
func tail(sortedXs []float64, maxP float64) (value, p float64, beyond int) {
	n := len(sortedXs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	p = maxP
	if lim := 1 - 10/float64(n); lim < p {
		p = math.Max(lim, 0.5)
	}
	return quantile(sortedXs, p), p, n - 1 - int(p*float64(n-1))
}

// halvesRatio is the unimodality guard: the median of the slower half of
// the op durations over the median of the faster half. A unimodal op keeps
// it near 1; a 50/50 mix of a short and a long request pushes it past 2,
// at which point the overall median sits on the boundary between the two
// modes and can no longer be trusted.
func halvesRatio(sortedXs []float64) float64 {
	n := len(sortedXs)
	if n < 4 {
		return 1
	}
	return quantile(sortedXs[n/2:], 0.5) / quantile(sortedXs[:n/2], 0.5)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segStat is one fixed-count segment of the measured phase: the ops done,
// the wall and process CPU time they took with the reference runs between
// them (one after every op), and those reference runs' own time.
type segStat struct {
	ops            int
	wall, cpu, ref time.Duration
}

func (s segStat) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }

// refRun is the segment's mean reference run.
func (s segStat) refRun() time.Duration { return s.ref / time.Duration(s.ops) }

// cpuRelPerOp is the CPU time one op cost in reference runs. The reference
// kernel keeps one thread busy for as long as it runs, so its wall time is
// also the CPU time to take out of the segment's.
func (s segStat) cpuRelPerOp() float64 {
	return float64(s.cpu-s.ref) / float64(s.ops) / float64(s.refRun())
}

// loop drives one workload instance in a closed loop: each client issues
// its next op only after the previous one returned, and runs the reference
// kernel once in between.
type loop struct {
	inst    instance
	clients int
	tracers []*tracer    // one per client; used by traced segments only
	kernels []*refKernel // one per client
	seq     []int64      // ops issued so far, per client
	ops     int
	failed  int
	err     error // first op failure
}

func newLoop(inst instance, clients int, tracers []*tracer) *loop {
	l := &loop{inst: inst, clients: clients, tracers: tracers, seq: make([]int64, clients)}
	for c := 0; c < clients; c++ {
		l.kernels = append(l.kernels, newRefKernel())
	}
	return l
}

// segment runs perClient ops on every client, with a reference run after
// each. Per-op wall times and the reference runs' own are appended to rec
// when it is non-nil. A failed op is counted, its error kept, and the loop
// carries on so the failure ratio means something.
func (l *loop) segment(perClient int, traced bool, rec *phase) segStat {
	type tally struct {
		failed int
		err    error
		ref    time.Duration
	}
	client := func(c int) (t tally) {
		var tr *tracer
		if traced {
			tr = l.tracers[c]
		}
		for i := 0; i < perClient; i++ {
			id := l.seq[c]*int64(l.clients) + int64(c)
			l.seq[c]++
			t0 := time.Now()
			tr.beginOp(id)
			root := tr.begin("op")
			err := l.inst.op(c, tr)
			tr.end(root)
			d := time.Since(t0)
			ref := l.kernels[c].run()
			t.ref += ref
			if rec != nil {
				rec.durs[c] = append(rec.durs[c], ms(d))
				rec.refs[c] = append(rec.refs[c], ms(ref))
			}
			if err != nil {
				t.failed++
				if t.err == nil {
					t.err = err
				}
			}
		}
		return t
	}

	cpu0, t0 := cpuTime(), time.Now()
	tallies := make([]tally, l.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = client(c)
		}(c)
	}
	wg.Wait()
	st := segStat{ops: perClient * l.clients, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	l.ops += st.ops
	for _, t := range tallies {
		st.ref += t.ref
		l.failed += t.failed
		if l.err == nil {
			l.err = t.err
		}
	}
	return st
}

// phase accumulates the segments of one kind (plain or traced): per
// client, every op's wall time and that of the reference run after it, in
// milliseconds.
type phase struct {
	perClient  int
	durs, refs [][]float64
	segs       []segStat
}

// newPhase sizes the buffers for maxSegs segments, so that recording a
// duration or a segment never allocates inside the measured phase.
func newPhase(clients, perClient, maxSegs int) *phase {
	p := &phase{perClient: perClient, segs: make([]segStat, 0, maxSegs)}
	for c := 0; c < clients; c++ {
		p.durs = append(p.durs, make([]float64, 0, maxSegs*perClient))
		p.refs = append(p.refs, make([]float64, 0, maxSegs*perClient))
	}
	return p
}

func (p *phase) add(l *loop, traced bool) {
	p.segs = append(p.segs, l.segment(p.perClient, traced, p))
}

// batchOps is how many consecutive ops of one client make a batch.
const batchOps = 8

// opRel returns, ascending, one value per batch of batchOps consecutive
// ops of one client: the time those ops took over the time the reference
// runs between them took. A batch is short enough (50–200 ms) that the
// host treats its ops and its reference runs alike, and long enough to
// average what differs from op to op: where a collection falls, which of
// two clients was served first.
func (p *phase) opRel() []float64 {
	var rel []float64
	for c, durs := range p.durs {
		for i := 0; i+batchOps <= len(durs); i += batchOps {
			var op, ref float64
			for j := i; j < i+batchOps; j++ {
				op, ref = op+durs[j], ref+p.refs[c][j]
			}
			rel = append(rel, op/ref)
		}
	}
	sort.Float64s(rel)
	return rel
}

// pooled returns every client's values in one ascending list.
func pooled(perClient [][]float64) []float64 {
	var all []float64
	for _, xs := range perClient {
		all = append(all, xs...)
	}
	sort.Float64s(all)
	return all
}

// memCounters reads the allocator totals the alloc metrics are deltas of.
func memCounters() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}
