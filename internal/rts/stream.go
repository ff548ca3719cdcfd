package rts

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/stream"
	"tflux/internal/tsu"
)

// streamSlot is one window slot: the State of the window occupying it,
// acquired when the window opens and released when it retires, the
// window's number, and its per-event admission stamps. Slots are made on
// demand and recycled, never freed during a run.
type streamSlot struct {
	st    *tsu.State
	idx   int
	win   int64
	admit []time.Time
}

// streamWork is one dispatched instance of a streaming run: the window
// slot whose State it belongs to and the instance in the window block's
// own context space.
type streamWork struct {
	slot *streamSlot
	inst core.Instance
}

// RunStream executes a streaming pipeline: events pulled from src are
// admitted into windows of p.Window events, each window fires through
// the per-window Synchronization Graph on a recycled window slot, and
// completed windows retire (export, latency accounting, slot release).
// It returns when the source is exhausted and every admitted window has
// retired.
//
// A window is the per-window DDM Block loaded again for each window: the
// call builds one tsu.Tables over the window block. Opening a window
// acquires a State over it and runs the Block's Inlet, which computes the
// SM's Ready Counts into the arrays the State took from the one the last
// retired window released; the surfaced Outlet is the retirement signal,
// and retiring releases the State. A slot is made only when no slot is
// free and fewer than opt.Slots exist, so a run holds memory for the
// windows it has had in flight, not for its slot budget.
//
// The loop interleaves four activities:
//
//   - injection: a dedicated goroutine pulls paced events from src and
//     dispatches entry-stage instances as they arrive, applying the
//     backpressure policy at window-slot exhaustion;
//   - firing: opt.Workers goroutines drain a shared FIFO of dispatched
//     instances, running stage bodies and completing instances on their
//     slot's State under the run's lock;
//   - retirement: the worker that completes a window's last instance
//     observes per-event admission→retire latency, applies the
//     pipeline's Export, and returns the slot to the free stack;
//   - padding: a partial final window is completed with pad instances
//     (entry body skipped, graph flow intact) so it can retire.
//
// Sequence numbers from src must be contiguous from 0: event seq
// belongs to window seq/W at local index seq%W. With the Shed policy,
// whole windows are dropped at admission when no slot is free; their
// events are consumed from the source and counted as shed.
//
// A stage body that panics aborts the run, not the process: the first
// panic is kept as the returned error, the injector stops admitting, and
// the windows already in flight retire with their remaining bodies and
// their Export skipped, the way pad instances skip the entry body.
func RunStream(p *stream.Pipeline, src stream.Source, opt stream.Options) (stream.Stats, error) {
	if p == nil || src == nil {
		return stream.Stats{}, fmt.Errorf("rts: RunStream needs a pipeline and a source")
	}
	block, err := p.Block()
	if err != nil {
		return stream.Stats{}, err
	}
	slots := opt.Slots
	if slots <= 0 {
		slots = stream.DefaultSlots
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perWindow := p.PerWindow()
	tables, err := tsu.NewTables(&core.Program{Name: p.Name, Blocks: []*core.Block{block}}, 1, tsu.Config{})
	if err != nil {
		return stream.Stats{}, err
	}
	W := int64(p.Window)
	entry := block.Templates[0].ID

	// Metrics go to the caller's registry when given; otherwise to a
	// private one, so Stats quantiles work either way.
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var (
		cInjected = reg.Counter("stream.injected")
		cPadded   = reg.Counter("stream.padded")
		cShedEv   = reg.Counter("stream.shed_events")
		cShedWin  = reg.Counter("stream.shed_windows")
		cOpened   = reg.Counter("stream.windows_opened")
		cRetired  = reg.Counter("stream.windows_retired")
		gInflight = reg.Gauge("stream.inflight_windows")
		hLatency  = reg.Histogram("stream.event_latency_ns")
	)

	// One lock guards everything the run shares: the FIFO of dispatched,
	// unfired instances, work[head:] oldest first; the free-slot stack;
	// the slot and window counts; and every open window's State. A push
	// never blocks, so there is no capacity to size ahead. The injector
	// writes a slot's st, win and admit before the window's first push,
	// and the retiring worker reads them before freeing the slot; mu
	// orders both.
	var (
		mu               sync.Mutex
		hasWork, hasSlot = sync.NewCond(&mu), sync.NewCond(&mu)
		work             []streamWork
		head             int
		free             []*streamSlot
		made             int
		opened, retired  int64
		injDone          bool
	)
	// push appends under mu and signals one waiting worker. The consumed
	// prefix is reclaimed once it is the larger half (readyQueue's rule).
	push := func(slot *streamSlot, inst core.Instance) {
		if 2*head > len(work) {
			n := copy(work, work[head:])
			work, head = work[:n], 0
		}
		work = append(work, streamWork{slot: slot, inst: inst})
		hasWork.Signal()
	}

	// padFrom is the first pad sequence number; MaxInt64 until the
	// source ends mid-window. Entry bodies are skipped at and past it.
	var padFrom atomic.Int64
	padFrom.Store(math.MaxInt64)

	// runErr is the first body panic; once set, the run is aborting.
	var runErr atomic.Pointer[error]
	runBody := func(stage int, body stream.Body, c stream.Ctx) {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("rts: stream stage %d (%s) panicked in window %d at seq %d: %v",
					stage, p.Stages[stage].Name, c.Window, c.Seq, r)
				runErr.CompareAndSwap(nil, &err)
			}
		}()
		body(c)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				ready     []tsu.Ready
				blockDone bool
			)
			mu.Lock()
			defer mu.Unlock()
			for {
				for head == len(work) && !(injDone && retired == opened) {
					hasWork.Wait()
				}
				if head == len(work) {
					return
				}
				it := work[head]
				if head++; head == len(work) {
					work, head = work[:0], 0
				}
				mu.Unlock()
				slot := it.slot
				stage := int(it.inst.Thread - entry)
				seq := slot.win*W + int64(it.inst.Ctx)
				if opt.Delay != nil {
					time.Sleep(opt.Delay(stage))
				}
				if body := p.Stages[stage].Body; body != nil && runErr.Load() == nil && !(stage == 0 && seq >= padFrom.Load()) {
					runBody(stage, body, stream.Ctx{Window: slot.win, Slot: slot.idx, Local: it.inst.Ctx, Seq: seq})
				}
				mu.Lock()
				ready, blockDone, _ = slot.st.CompleteInto(ready[:0], it.inst, 0)
				if blockDone {
					// The Block drained: the surfaced Outlet is the last
					// entry, and the window retires instead of running it.
					ready = ready[:len(ready)-1]
				}
				for _, r := range ready {
					push(slot, r.Inst)
				}
				if !blockDone {
					continue
				}
				mu.Unlock()
				// Window retired: its State goes back, then latency per
				// admitted (non-pad) event, export while the slot's data
				// is still valid, and the slot goes back.
				slot.st.Release()
				now := time.Now()
				pf := padFrom.Load()
				for l := int64(0); l < W; l++ {
					if slot.win*W+l < pf {
						hLatency.ObserveDuration(now.Sub(slot.admit[l]))
					}
				}
				if p.Export != nil && runErr.Load() == nil {
					p.Export(slot.win, slot.idx)
				}
				mu.Lock()
				gInflight.Add(-1)
				free = append(free, slot)
				hasSlot.Signal()
				cRetired.Inc()
				if retired++; injDone && retired == opened {
					hasWork.Broadcast()
				}
			}
		}()
	}

	// Injection loop (this goroutine): windows open lazily at their
	// first event, so backpressure applies at window boundaries. cur is
	// the current window's slot, nil while that window is shed.
	var (
		curWin  int64 = -1
		cur     *streamSlot
		curNext core.Context // next local index in the current window
		sources []tsu.Ready
	)
	for runErr.Load() == nil {
		seq, ok := src.Next()
		if !ok {
			break
		}
		win := seq / W
		if win != curWin {
			curWin, curNext = win, 0
			mu.Lock()
			for len(free) == 0 && made == slots && opt.Policy != stream.Shed {
				hasSlot.Wait()
			}
			switch n := len(free); {
			case n > 0:
				cur, free = free[n-1], free[:n-1]
			case made < slots:
				cur = &streamSlot{idx: made, admit: make([]time.Time, W)}
				made++
			default:
				cur = nil
				cShedWin.Inc()
			}
			if cur != nil {
				opened++
				cOpened.Inc()
				gInflight.Add(1)
			}
			mu.Unlock()
			if cur != nil {
				// Load the window's SM by running the Inlet. The sources
				// it surfaces are the entry instances, which are
				// dispatched as their events arrive instead.
				cur.st = tables.Acquire()
				sources, _, _ = cur.st.DoneInto(sources[:0], cur.st.Start().Inst, 0)
				cur.win = win
			}
		}
		if cur == nil {
			cShedEv.Inc()
			continue
		}
		local := core.Context(seq % W)
		cur.admit[local] = time.Now()
		cInjected.Inc()
		curNext = local + 1
		mu.Lock()
		push(cur, core.Instance{Thread: entry, Ctx: local})
		mu.Unlock()
	}
	mu.Lock()
	// Pad a partial final window so its firing closure can complete.
	if cur != nil && int64(curNext) < W {
		padFrom.Store(curWin*W + int64(curNext))
		for l := curNext; int64(l) < W; l++ {
			cPadded.Inc()
			push(cur, core.Instance{Thread: entry, Ctx: l})
		}
	}
	injDone = true
	hasWork.Broadcast()
	mu.Unlock()
	wg.Wait()
	if err := runErr.Load(); err != nil {
		return stream.Stats{}, *err
	}

	elapsed := time.Since(start)
	st := stream.Stats{
		Events:      cInjected.Value(),
		Padded:      cPadded.Value(),
		ShedEvents:  cShedEv.Value(),
		ShedWindows: cShedWin.Value(),
		Windows:     cRetired.Value(),
		Fired:       cRetired.Value() * perWindow,
		P50:         time.Duration(hLatency.Quantile(0.50)),
		P95:         time.Duration(hLatency.Quantile(0.95)),
		P99:         time.Duration(hLatency.Quantile(0.99)),
		Elapsed:     elapsed,
		MaxInFlight: gInflight.Max(),
	}
	if r, ok := src.(stream.Rater); ok {
		st.OfferedEPS = r.Rate()
	}
	if s := elapsed.Seconds(); s > 0 {
		st.AchievedEPS = float64(st.Events) / s
	}
	reg.Counter("stream.offered_eps").Set(int64(st.OfferedEPS))
	reg.Counter("stream.achieved_eps").Set(int64(st.AchievedEPS))
	return st, nil
}
