package rts

import (
	"fmt"
	"sync"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// Options configures a TFluxSoft run.
type Options struct {
	// Kernels is the number of worker loops executing DThreads. On the
	// single-driver plane the TSU emulator is one extra goroutine on top of
	// them, mirroring the CPU the paper dedicates to it; with TSUShards > 1
	// there is no extra goroutine — readiness bookkeeping is stepped by the
	// kernels themselves. Zero selects 1.
	Kernels int
	// TSUShards selects the sharded TSU plane: N > 1 partitions the
	// readiness bookkeeping into N shards (clamped to Kernels), each
	// stepped lock-free by one kernel, with cross-shard decrements batched
	// through per-shard inbox TUBs. 0 or 1 keeps the dedicated emulator
	// goroutine: one driver serializes every Ready Count update, which is
	// what the sharded plane's equivalence suites compare against.
	TSUShards int
	// Obs, when non-nil, receives the full typed event stream (thread
	// executions, TSU commands, TUB deposits).
	Obs obs.Sink
	// Metrics, when non-nil, receives runtime counters, the ready-queue
	// depth gauge and the per-thread latency histogram, plus end-of-run
	// TSU and TUB totals.
	Metrics *obs.Registry
	// TSUSize caps the number of DThread instances a single DDM Block may
	// hold (the TSU's slot count, §2). Zero means unlimited.
	TSUSize int64
}

// Stats reports what a run did and how long it took.
type Stats struct {
	Elapsed time.Duration
	Kernels int
	TSU     tsu.Stats
	TUB     tsu.TUBStats
	// Executed counts application DThread instances per kernel.
	Executed []int64
	// Service counts Inlet/Outlet executions per kernel.
	Service []int64
	// Idle is per-kernel time spent blocked waiting for a ready DThread.
	Idle []time.Duration
	// Shards is the TSU shard count (0 for the dedicated emulator). With
	// shards, TUB reports the cross-shard inbox traffic instead of the
	// global buffer's.
	Shards int
	// CrossShardDecrements counts Ready Count decrements that crossed a
	// shard boundary through an inbox (0 for the dedicated emulator).
	CrossShardDecrements int64
	// ShardFired is the per-shard count of instances fired into each
	// shard's ownership — the occupancy/imbalance measure.
	ShardFired []int64
}

// TotalExecuted sums per-kernel application instance counts.
func (s *Stats) TotalExecuted() int64 {
	var n int64
	for _, e := range s.Executed {
		n += e
	}
	return n
}

// Run executes a DDM program under the TFluxSoft runtime and blocks until
// the final Block's Outlet completes. The program is validated first. A
// panic inside a DThread body is recovered, aborts the run, and is
// reported as an error naming the instance.
func Run(p *core.Program, opt Options) (*Stats, error) {
	return RunExec(p, opt, call)
}

// Exec runs one DThread instance on kernel k: at least body(inst.Ctx),
// and whatever the platform does around it on that kernel. Inlet and
// Outlet instances pass through it too, with a body that does nothing.
type Exec func(k tsu.KernelID, inst core.Instance, body core.Body)

// RunExec is Run with every DThread executed through exec on the kernel
// the TKT gives it, each kernel calling it from its own goroutine. A panic
// in exec is the DThread's. TFluxCell runs this way, exec staging the
// instance through kernel k's Local Store.
func RunExec(p *core.Program, opt Options, exec Exec) (*Stats, error) {
	if opt.Kernels <= 0 {
		opt.Kernels = 1
	}
	state, err := tsu.NewStateCfg(p, opt.Kernels, tsu.Config{MaxBlockInstances: opt.TSUSize})
	if err != nil {
		return nil, err
	}
	shards := opt.TSUShards
	if shards > opt.Kernels {
		shards = opt.Kernels
	}
	sc := takeScratch(opt.Kernels)
	// Every goroutine of the run has exited before Run returns.
	defer sc.release()
	r := &runner{
		state:   state,
		exec:    exec,
		queues:  sc.queues[:opt.Kernels],
		bufs:    sc.bufs[:opt.Kernels],
		emu:     &sc.bufs[opt.Kernels],
		stop:    make(chan struct{}),
		sink:    opt.Obs,
		tsuLane: opt.Kernels, // first TSU lane: the emulator's (Figure 4), or shard 0's
	}
	if shards > 1 {
		// Sharded plane: cross-shard batches wake the stepper of the
		// receiving shard through its ready queue's kick flag.
		r.sharded, err = tsu.NewSharded(state, shards, func(sh int) {
			r.queues[int(r.sharded.Stepper(sh))].kick()
		})
		if err != nil {
			return nil, err
		}
	} else {
		r.tub = tsu.NewTUB(opt.Kernels, tsu.TUBConfig{})
	}
	if opt.Metrics != nil {
		r.mDispatched = opt.Metrics.Counter("rts.dispatched")
		r.mQueueDepth = opt.Metrics.Gauge("rts.queue_depth")
		r.mThreadNS = opt.Metrics.Histogram("rts.thread_ns")
		r.mTSUCommands = opt.Metrics.Counter("rts.tsu_commands")
	}
	if r.sink != nil {
		r.sink.Begin()
		if r.tub != nil {
			r.tub.SetObs(r.sink)
		}
	}
	stats := &Stats{
		Kernels:  opt.Kernels,
		Executed: make([]int64, opt.Kernels),
		Service:  make([]int64, opt.Kernels),
		Idle:     make([]time.Duration, opt.Kernels),
	}

	start := time.Now()
	// Bootstrap: the Inlet DThread of the first Block is the first thing a
	// Kernel executes. It is staged before any goroutine starts, while the
	// pending batches are still this goroutine's to touch.
	r.emu.ready = append(r.emu.ready, state.Start())
	r.stage(r.emu.pend, r.emu.ready)
	r.flush(r.emu.pend)
	var wg sync.WaitGroup
	if r.sharded == nil {
		// Single-driver plane: the TSU emulator is a dedicated goroutine,
		// the paper's Figure 4 layout.
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.emulate()
		}()
	}
	for k := 0; k < opt.Kernels; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r.kernel(tsu.KernelID(k), &stats.Executed[k], &stats.Service[k])
		}(k)
	}
	wg.Wait()

	stats.Elapsed = time.Since(start)
	if r.sharded != nil {
		stats.TSU = r.sharded.Stats()
		stats.TUB = r.sharded.InboxStats()
		stats.Shards = r.sharded.Shards()
		stats.CrossShardDecrements = r.sharded.CrossShardDecrements()
		stats.ShardFired = r.sharded.ShardFired()
		r.sharded.Release()
	} else {
		stats.TSU = state.Stats()
		stats.TUB = r.tub.Stats()
		r.tub.Release()
	}
	state.Release()
	for k, q := range r.queues {
		stats.Idle[k] = q.idleTime()
	}
	if opt.Metrics != nil {
		publishMetrics(opt.Metrics, stats)
	}
	r.errMu.Lock()
	err = r.err
	r.errMu.Unlock()
	return stats, err
}

// publishMetrics copies the end-of-run TSU and TUB totals into the
// registry so one metrics summary covers live and aggregate counters.
func publishMetrics(reg *obs.Registry, stats *Stats) {
	reg.Counter("tsu.decrements").Set(stats.TSU.Decrements)
	reg.Counter("tsu.fired").Set(stats.TSU.Fired)
	reg.Counter("tsu.inlets").Set(int64(stats.TSU.Inlets))
	reg.Counter("tsu.outlets").Set(int64(stats.TSU.Outlets))
	reg.Counter("tub.pushes").Set(stats.TUB.Pushes)
	reg.Counter("tub.try_misses").Set(stats.TUB.TryMisses)
	var idle time.Duration
	for _, d := range stats.Idle {
		idle += d
	}
	reg.Counter("rts.idle_ns").Set(int64(idle))
	reg.Counter("rts.executed").Set(stats.TotalExecuted())
	// Per-kernel breakdowns: load imbalance is invisible in the totals.
	for k := range stats.Executed {
		reg.Counter(fmt.Sprintf("rts.executed.k%d", k)).Set(stats.Executed[k])
		reg.Counter(fmt.Sprintf("rts.idle_ns.k%d", k)).Set(int64(stats.Idle[k]))
	}
	if stats.Shards > 1 {
		reg.Counter("tsu.shards").Set(int64(stats.Shards))
		reg.Counter("tsu.cross_shard_decrements").Set(stats.CrossShardDecrements)
		var max, sum int64
		for sh, n := range stats.ShardFired {
			reg.Gauge(fmt.Sprintf("tsu.shard_occupancy.s%d", sh)).Set(n)
			sum += n
			if n > max {
				max = n
			}
		}
		// Imbalance: how far the hottest shard sits above the mean, in
		// percent (0 = perfectly even ownership load).
		if mean := float64(sum) / float64(len(stats.ShardFired)); mean > 0 {
			reg.Gauge("tsu.shard_imbalance_pct").Set(int64(100 * (float64(max)/mean - 1)))
		}
	}
}

type runner struct {
	state *tsu.State
	exec  Exec
	// Exactly one of tub/sharded is set: tub feeds the dedicated emulator
	// goroutine, sharded is the per-kernel-stepped shard plane.
	tub     *tsu.TUB
	sharded *tsu.ShardedState
	queues  []*readyQueue

	// bufs[k] is kernel k's buffers and emu the emulator's, both from
	// the run's scratch. The emulator's pend accumulates per-kernel ready
	// batches across one TUB drain cycle; flush publishes each batch under
	// a single queue-lock acquisition with a single wakeup. emu is touched
	// only by the emulator goroutine (and by Run's bootstrap before it
	// starts); a shard-stepping kernel stages into its own pend.
	bufs []scratchBufs
	emu  *scratchBufs

	// Observability; all nil when disabled, so the hot path pays only
	// untaken branches.
	sink         obs.Sink
	tsuLane      int
	mDispatched  *obs.Counter
	mQueueDepth  *obs.Gauge
	mThreadNS    *obs.Histogram
	mTSUCommands *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
	errMu    sync.Mutex
	err      error
}

// fail tears the run down, so the other kernels stop at their next pop,
// and records the first error. Run reads it only after every kernel has
// returned.
func (r *runner) fail(err error) {
	r.shutdown()
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

func (r *runner) shutdown() {
	r.stopOnce.Do(func() {
		close(r.stop)
		for _, q := range r.queues {
			q.close()
		}
	})
}

// kernel is the Kernel loop of Figure 2: find a ready DThread, run its
// code, perform the Post-Processing Phase and loop. What a kernel does of
// that phase depends on whether it holds a lane onto a sharded TSU.
//
// Without one, it does the kernel-side half only — arc expansion into the
// TUB — and the emulator goroutine applies the decrements.
//
// With one there is no emulator: the kernel steps the TSU shard it owns at
// the top of every iteration (applying the cross-shard decrements in its
// inbox and dispatching whatever they fired), and performs the whole
// Post-Processing Phase of its own completions in place. A kick on the
// ready queue signals inbox work while the queue is empty, so pending
// cross-shard decrements are never slept through.
func (r *runner) kernel(k tsu.KernelID, executed, service *int64) {
	var ln *tsu.Lane
	if r.sharded != nil {
		ln = r.sharded.Lane(k)
	}
	q := r.queues[int(k)]
	b := &r.bufs[int(k)]
	// A panic anywhere in the loop aborts the run (fail) instead of the
	// process. In the body, or in a Mapping's AppendTargets during arc
	// expansion, it is the DThread's; in Complete or Step it is a broken
	// TSU invariant. inst is the instance the kernel executes, and at
	// where in the loop it is.
	var (
		inst core.Instance
		at   = atDThread
	)
	defer func() {
		if p := recover(); p != nil {
			switch at {
			case atDThread:
				r.fail(fmt.Errorf("rts: DThread %v panicked on kernel %d: %v", inst, k, p))
			case atComplete:
				r.fail(fmt.Errorf("rts: TSU violation while completing %v on kernel %d: %v", inst, k, p))
			case atStep:
				r.fail(fmt.Errorf("rts: TSU violation on kernel %d while applying its shard's inbox: %v", k, p))
			}
		}
	}()
	for {
		if ln != nil {
			at = atStep
			b.ready = ln.Step(b.ready[:0])
			at = atDThread
			r.stage(b.pend, b.ready)
			r.flush(b.pend)
		}
		var ok, closed bool
		inst, ok, closed = q.pop()
		if closed {
			return
		}
		if !ok {
			continue
		}
		if r.mQueueDepth != nil {
			r.mQueueDepth.Add(-1)
		}
		r.runBody(k, inst, executed, service)
		b.targets = r.state.AppendConsumers(b.targets[:0], &b.ctx, inst)
		if ln == nil {
			r.tub.Push(tsu.Completion{Inst: inst, Kernel: k, Targets: b.targets})
			continue
		}
		t0 := r.now()
		at = atComplete
		var done bool
		b.ready, done = ln.Complete(b.ready[:0], inst, b.targets)
		at = atDThread
		r.tsuCommand(r.tsuLane+r.sharded.ShardOf(k), inst, t0)
		r.stage(b.pend, b.ready)
		r.flush(b.pend)
		if done {
			r.shutdown()
			return
		}
	}
}

// Where in its loop a kernel is, for the error a panic there becomes.
const (
	atDThread  = iota // a DThread's body or its arc expansion
	atComplete        // the sharded TSU's side of its completion
	atStep            // applying its shard's inbox
)

// runBody runs one DThread on kernel k through the run's Exec: it times
// it, records its ThreadComplete event and counts it as an application or
// a service execution. A panicking body unwinds into the kernel's recover.
func (r *runner) runBody(k tsu.KernelID, inst core.Instance, executed, service *int64) {
	timed := r.sink != nil || r.mThreadNS != nil
	var t0 time.Duration
	var start time.Time
	if timed {
		t0, start = r.now(), time.Now()
	}
	r.exec(k, inst, r.state.Body(inst))
	if timed {
		dur := time.Since(start)
		if r.sink != nil {
			r.sink.Record(obs.Event{
				Kind:    obs.ThreadComplete,
				Lane:    int(k),
				Inst:    inst,
				Start:   t0,
				Dur:     dur,
				Service: r.state.IsService(inst),
			})
		}
		if r.mThreadNS != nil {
			r.mThreadNS.ObserveDuration(dur)
		}
	}
	if r.state.IsService(inst) {
		*service++
	} else {
		*executed++
	}
}

// call is Run's Exec: the body and nothing else.
func call(_ tsu.KernelID, inst core.Instance, body core.Body) { body(inst.Ctx) }

// now reads the observability clock (zero when no sink is attached).
func (r *runner) now() time.Duration {
	if r.sink == nil {
		return 0
	}
	return r.sink.Now()
}

// tsuCommand records one processed completion — the TSU side of the
// Post-Processing Phase — on the given TSU lane, t0 being when it began.
func (r *runner) tsuCommand(lane int, inst core.Instance, t0 time.Duration) {
	if r.sink != nil {
		r.sink.Record(obs.Event{
			Kind:  obs.TSUCommand,
			Lane:  lane,
			Inst:  inst,
			Start: t0,
			Dur:   r.sink.Now() - t0,
		})
	}
	if r.mTSUCommands != nil {
		r.mTSUCommands.Inc()
	}
}

// emulate is the TSU Emulator loop, the driver of a TSU with no shards:
// drain the TUB, apply Ready Count decrements through the TKT-indexed
// Synchronization Memories, process completions (block sequencing), and
// publish newly ready DThreads to their owning Kernels' queues in per-drain
// batches (one queue-lock acquisition and one wakeup per kernel per drain
// cycle, instead of one per instance).
//
// A panic in it is a broken TSU invariant — a Ready Count driven below
// zero, a Block over-completed — and aborts the run (fail) instead of the
// process.
func (r *runner) emulate() {
	var rec tsu.Completion // the record being applied
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("rts: TSU violation while completing %v from kernel %d: %v", rec.Inst, rec.Kernel, p))
		}
	}()
	e := r.emu
	for {
		e.recs = r.tub.Drain(e.recs[:0])
		if len(e.recs) == 0 {
			if !r.tub.Wait(r.stop) {
				return
			}
			continue
		}
		for _, rec = range e.recs {
			t0 := r.now()
			done := r.process(rec)
			r.tsuCommand(r.tsuLane, rec.Inst, t0)
			if done {
				r.shutdown()
				return
			}
		}
		r.flush(e.pend)
	}
}

// process applies one completion record: the Post-Processing Phase of
// Figure 2. Newly ready instances are staged into the per-kernel pending
// batches rather than dispatched one by one. It reports whether the
// program finished.
func (r *runner) process(rec tsu.Completion) bool {
	e := r.emu
	e.ready = e.ready[:0]
	for _, tgt := range rec.Targets {
		e.ready = r.state.DecrementInto(e.ready, tgt)
	}
	var programDone bool
	e.ready, _, programDone = r.state.DoneInto(e.ready, rec.Inst, rec.Kernel)
	r.stage(e.pend, e.ready)
	return programDone
}

// stage records the dispatch of each ready instance and appends it to its
// owner kernel's batch in pend, the caller's per-kernel scratch.
func (r *runner) stage(pend [][]core.Instance, ready []tsu.Ready) {
	for _, rd := range ready {
		if r.sink != nil {
			r.sink.Record(obs.Event{
				Kind:  obs.ThreadDispatch,
				Lane:  int(rd.Kernel),
				Inst:  rd.Inst,
				Start: r.sink.Now(),
			})
		}
		if r.mDispatched != nil {
			r.mDispatched.Inc()
		}
		if r.mQueueDepth != nil {
			r.mQueueDepth.Add(1)
		}
		pend[int(rd.Kernel)] = append(pend[int(rd.Kernel)], rd.Inst)
	}
}

// flush publishes every non-empty batch in pend to its kernel's queue — one
// lock acquisition and one wakeup per kernel — and clears the batches.
func (r *runner) flush(pend [][]core.Instance) {
	for k, batch := range pend {
		if len(batch) == 0 {
			continue
		}
		r.queues[k].pushBatch(batch)
		pend[k] = batch[:0]
	}
}
