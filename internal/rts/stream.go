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

// streamWork is one dispatched instance of a streaming run: the window
// slot whose State it belongs to and the instance in the window block's
// own context space.
type streamWork struct {
	slot int32
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
// call builds one tsu.Tables over the window block, and each slot owns
// one State over it for the whole run. Opening a window resets the
// slot's State and runs the Block's Inlet, which restores the SM image
// by memcpy from the snapshot; the surfaced Outlet is the retirement
// signal.
//
// The loop interleaves four activities:
//
//   - injection: a dedicated goroutine pulls paced events from src and
//     dispatches entry-stage instances as they arrive, applying the
//     backpressure policy at window-slot exhaustion;
//   - firing: opt.Workers goroutines drain a shared ready channel,
//     running stage bodies and completing instances on their slot's
//     State under that slot's lock;
//   - retirement: the worker that completes a window's last instance
//     observes per-event admission→retire latency, applies the
//     pipeline's Export, and returns the slot to the free list;
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

	// The work channel holds every dispatched-but-unfired instance. Its
	// capacity is the worst case — all live windows fully pending — so
	// worker self-pushes never block and cannot deadlock. WorkCapacity is
	// the shared derivation of that bound (ddmlint's budget check verifies
	// the same formula); a capacity that overflows or exceeds what a chan
	// can hold voids the no-deadlock argument, so refuse to run. The check
	// comes before anything is sized by the slot count.
	capWork, capOK := stream.WorkCapacity(int64(slots), perWindow, int64(workers))
	if !capOK || capWork > math.MaxInt32 {
		return stream.Stats{}, fmt.Errorf("rts: work channel capacity %d slots × %d instances + %d workers voids the no-deadlock bound",
			slots, perWindow, workers)
	}
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

	// Per-slot state recycled with the slot: the window block's State
	// and the lock that serializes its completions, the window occupying
	// the slot, and per-event admission timestamps. The injector writes
	// a slot only after receiving it from free, and before dispatching
	// the window's first instance; the retiring worker reads it before
	// sending it back to free — the channel operations order the two.
	// free is the free list, sized to hold every slot, so a retiring
	// worker's send never blocks.
	states := make([]*tsu.State, slots)
	locks := make([]sync.Mutex, slots)
	wins := make([]int64, slots)
	admit := make([][]time.Time, slots)
	free := make(chan int32, slots)
	for i := range states {
		states[i] = tables.NewState()
		admit[i] = make([]time.Time, W)
		free <- int32(i)
	}
	inlet := states[0].Start().Inst

	// padFrom is the first pad sequence number; MaxInt64 until the
	// source ends mid-window. Entry bodies are skipped at and past it.
	var padFrom atomic.Int64
	padFrom.Store(math.MaxInt64)

	work := make(chan streamWork, capWork)
	var (
		opened    atomic.Int64
		retired   atomic.Int64
		injDone   atomic.Bool
		closeOnce sync.Once
	)
	closeWork := func() { closeOnce.Do(func() { close(work) }) }

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
			var (
				ready     []tsu.Ready
				blockDone bool
			)
			for it := range work {
				slot := int(it.slot)
				stage := int(it.inst.Thread - entry)
				win := wins[slot]
				seq := win*W + int64(it.inst.Ctx)
				if opt.Delay != nil {
					time.Sleep(opt.Delay(stage))
				}
				if body := p.Stages[stage].Body; body != nil && runErr.Load() == nil && !(stage == 0 && seq >= padFrom.Load()) {
					runBody(stage, body, stream.Ctx{Window: win, Slot: slot, Local: it.inst.Ctx, Seq: seq})
				}
				locks[slot].Lock()
				ready, blockDone, _ = states[slot].CompleteInto(ready[:0], it.inst, 0)
				locks[slot].Unlock()
				if blockDone {
					// The Block drained: the surfaced Outlet is the last
					// entry, and the window retires instead of running it.
					ready = ready[:len(ready)-1]
				}
				for _, r := range ready {
					work <- streamWork{slot: it.slot, inst: r.Inst}
				}
				if !blockDone {
					continue
				}
				// Window retired: latency per admitted (non-pad) event,
				// export while the slot's data is still valid, release.
				now := time.Now()
				pf := padFrom.Load()
				for l := int64(0); l < W; l++ {
					if win*W+l < pf {
						hLatency.ObserveDuration(now.Sub(admit[slot][l]))
					}
				}
				if p.Export != nil && runErr.Load() == nil {
					p.Export(win, slot)
				}
				// Leave the gauge before freeing the slot: the injector may
				// re-open it at once, and the gauge must never read more
				// windows than there are slots.
				gInflight.Add(-1)
				free <- it.slot
				cRetired.Inc()
				if r := retired.Add(1); injDone.Load() && r == opened.Load() {
					closeWork()
				}
			}
			wg.Done()
		}()
	}

	// Injection loop (this goroutine): windows open lazily at their
	// first event, so backpressure applies at window boundaries.
	var (
		curWin  int64 = -1
		curSlot int32
		curShed bool
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
			curWin, curNext, curShed = win, 0, false
			if opt.Policy == stream.Shed {
				select {
				case curSlot = <-free:
				default:
					curShed = true
					cShedWin.Inc()
				}
			} else {
				curSlot = <-free
			}
			if !curShed {
				// Load the window's SM by running the Inlet. The sources
				// it surfaces are the entry instances, which are
				// dispatched as their events arrive instead.
				st := states[curSlot]
				st.Reset()
				sources, _, _ = st.DoneInto(sources[:0], inlet, 0)
				wins[curSlot] = win
				opened.Add(1)
				cOpened.Inc()
				gInflight.Add(1)
			}
		}
		if curShed {
			cShedEv.Inc()
			continue
		}
		local := core.Context(seq % W)
		admit[curSlot][local] = time.Now()
		cInjected.Inc()
		curNext = local + 1
		work <- streamWork{slot: curSlot, inst: core.Instance{Thread: entry, Ctx: local}}
	}
	// Pad a partial final window so its firing closure can complete.
	if curWin >= 0 && !curShed && int64(curNext) < W {
		padFrom.Store(curWin*W + int64(curNext))
		for l := curNext; int64(l) < W; l++ {
			cPadded.Inc()
			work <- streamWork{slot: curSlot, inst: core.Instance{Thread: entry, Ctx: l}}
		}
	}
	injDone.Store(true)
	if retired.Load() == opened.Load() {
		closeWork()
	}
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
