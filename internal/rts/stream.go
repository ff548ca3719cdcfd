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

// RunStream executes a streaming pipeline: events pulled from src are
// admitted into windows of p.Window events, each window fires through
// the per-window Synchronization Graph on a recycled tsu.WindowedSM
// slot, and completed windows retire (export, latency accounting, slot
// release). It returns when the source is exhausted and every admitted
// window has retired.
//
// The loop interleaves four activities:
//
//   - injection: a dedicated goroutine pulls paced events from src and
//     dispatches entry-stage instances as they arrive, applying the
//     backpressure policy at window-slot exhaustion;
//   - firing: opt.Workers goroutines drain a shared ready channel,
//     running stage bodies and propagating decrements;
//   - retirement: the worker that fires a window's last instance
//     observes per-event admission→retire latency, applies the
//     pipeline's Export, and releases the slot;
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
	wsm, err := tsu.NewWindowed(block, slots)
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

	// Per-slot state recycled with the SM slot: the window's WindowRef
	// (needed at release) and per-event admission timestamps. Writes
	// happen before the entry dispatch (injector side) and reads after
	// the firing closure completes (retiring worker), so the channel
	// send plus the decrement chain order them.
	refs := make([]tsu.WindowRef, slots)
	admit := make([][]time.Time, slots)
	for i := range admit {
		admit[i] = make([]time.Time, W)
	}

	// padFrom is the first pad sequence number; MaxInt64 until the
	// source ends mid-window. Entry bodies are skipped at and past it.
	var padFrom atomic.Int64
	padFrom.Store(math.MaxInt64)

	// The work channel holds every dispatched-but-unfired instance. Its
	// capacity is the worst case — all live windows fully pending — so
	// worker self-pushes never block and cannot deadlock. WorkCapacity is
	// the shared derivation of that bound (ddmlint's budget check verifies
	// the same formula); a capacity that overflows or exceeds what a chan
	// can hold voids the no-deadlock argument, so refuse to run.
	capWork, capOK := stream.WorkCapacity(int64(slots), wsm.PerWindow(), int64(workers))
	if !capOK || capWork > math.MaxInt32 {
		return stream.Stats{}, fmt.Errorf("rts: work channel capacity %d slots × %d instances + %d workers voids the no-deadlock bound",
			slots, wsm.PerWindow(), workers)
	}
	work := make(chan core.Instance, capWork)
	freeCh := make(chan struct{}, slots)
	wsm.SetOnFree(func() {
		select {
		case freeCh <- struct{}{}:
		default:
		}
	})

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
			defer wg.Done()
			var buf []core.Instance
			var ctx []core.Context
			for inst := range work {
				slot, local := wsm.Decode(inst)
				stage := int(inst.Thread - entry)
				win := wsm.Window(slot)
				seq := win*W + int64(local)
				if opt.Delay != nil {
					time.Sleep(opt.Delay(stage))
				}
				if body := p.Stages[stage].Body; body != nil && runErr.Load() == nil && !(stage == 0 && seq >= padFrom.Load()) {
					runBody(stage, body, stream.Ctx{Window: win, Slot: slot, Local: local, Seq: seq})
				}
				buf = wsm.AppendConsumers(buf[:0], &ctx, inst)
				for _, tgt := range buf {
					if wsm.Decrement(tgt) {
						work <- tgt
					}
				}
				if !wsm.Done(slot) {
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
				wsm.Release(refs[slot])
				cRetired.Inc()
				if r := retired.Add(1); injDone.Load() && r == opened.Load() {
					closeWork()
				}
			}
		}()
	}

	// Injection loop (this goroutine): windows open lazily at their
	// first event, so backpressure applies at window boundaries.
	var (
		curWin  int64 = -1
		curRef  tsu.WindowRef
		curShed bool
		curNext core.Context // next local index in the current window
	)
	for runErr.Load() == nil {
		seq, ok := src.Next()
		if !ok {
			break
		}
		win := seq / W
		if win != curWin {
			curWin, curNext, curShed = win, 0, false
			ref, got := wsm.Open(win)
			if !got && opt.Policy == stream.Shed {
				curShed = true
				cShedWin.Inc()
			}
			for !got && !curShed {
				<-freeCh
				ref, got = wsm.Open(win)
			}
			if got {
				curRef = ref
				refs[ref.Slot] = ref
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
		admit[curRef.Slot][local] = time.Now()
		cInjected.Inc()
		curNext = local + 1
		work <- wsm.Encode(entry, curRef, local)
	}
	// Pad a partial final window so its firing closure can complete.
	if curWin >= 0 && !curShed && int64(curNext) < W {
		padFrom.Store(curWin*W + int64(curNext))
		for l := curNext; int64(l) < W; l++ {
			cPadded.Inc()
			work <- wsm.Encode(entry, curRef, l)
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
		// Entry instances fire on arrival, the rest on decrement.
		Fired:       wsm.Stats().Fired + cInjected.Value() + cPadded.Value(),
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
