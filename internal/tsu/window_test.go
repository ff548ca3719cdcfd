package tsu

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
)

// windowBlock builds a small per-window pipeline block: entry (W instances,
// in-degree 0) → mid (W) → agg (W/4, gather) → tail (1, reduction).
func windowBlock(w core.Context) *core.Block {
	nop := func(core.Context) {}
	b := &core.Block{ID: 0}
	entry := core.NewTemplate(1, "entry", nop)
	entry.Instances = w
	entry.Then(2, core.OneToOne{})
	mid := core.NewTemplate(2, "mid", nop)
	mid.Instances = w
	mid.Then(3, core.Gather{Fan: 4})
	agg := core.NewTemplate(3, "agg", nop)
	agg.Instances = w / 4
	agg.Then(4, core.AllToOne{})
	tail := core.NewTemplate(4, "tail", nop)
	tail.Instances = 1
	b.Templates = []*core.Template{entry, mid, agg, tail}
	return b
}

// TestWindowedBasic walks one window through open → fire → retire and
// checks the counter bookkeeping.
func TestWindowedBasic(t *testing.T) {
	w, err := NewWindowed(windowBlock(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.PerWindow() != 8+8+2+1 {
		t.Fatalf("perWindow = %d", w.PerWindow())
	}
	ref, ok := w.Open(0)
	if !ok {
		t.Fatal("open failed with free slots")
	}
	if got := w.InFlight(); got != 1 {
		t.Fatalf("inflight = %d", got)
	}
	// Drive the whole window synchronously: entry instances are the
	// sources; everything else fires from decrements.
	var queue []core.Instance
	for c := core.Context(0); c < 8; c++ {
		queue = append(queue, w.Encode(1, ref, c))
	}
	executed := 0
	retired := false
	for len(queue) > 0 {
		inst := queue[0]
		queue = queue[1:]
		executed++
		for _, tgt := range w.AppendConsumers(nil, new([]core.Context), inst) {
			if w.Decrement(tgt) {
				queue = append(queue, tgt)
			}
		}
		slot, _ := w.Decode(inst)
		if w.Done(slot) {
			retired = true
		}
	}
	if int64(executed) != w.PerWindow() {
		t.Fatalf("executed %d of %d", executed, w.PerWindow())
	}
	if !retired {
		t.Fatal("window never retired")
	}
	w.Release(ref)
	st := w.Stats()
	if st.Opened != 1 || st.Retired != 1 {
		t.Fatalf("stats %+v", st)
	}
	if w.InFlight() != 0 {
		t.Fatalf("inflight after release = %d", w.InFlight())
	}
}

func TestWindowedOpenExhaustion(t *testing.T) {
	w, err := NewWindowed(windowBlock(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	r0, ok := w.Open(0)
	if !ok {
		t.Fatal("open 0")
	}
	if _, ok := w.Open(1); !ok {
		t.Fatal("open 1")
	}
	if _, ok := w.Open(2); ok {
		t.Fatal("open past the slot budget succeeded")
	}
	// Drain window 0 so its slot frees, then the third open succeeds.
	drainWindow(w, r0)
	w.Release(r0)
	if _, ok := w.Open(2); !ok {
		t.Fatal("open after release failed")
	}
}

// drainWindow fires a window to completion synchronously.
func drainWindow(w *WindowedSM, ref WindowRef) {
	var queue []core.Instance
	for c := core.Context(0); c < w.Instances(1); c++ {
		queue = append(queue, w.Encode(1, ref, c))
	}
	for len(queue) > 0 {
		inst := queue[0]
		queue = queue[1:]
		for _, tgt := range w.AppendConsumers(nil, new([]core.Context), inst) {
			if w.Decrement(tgt) {
				queue = append(queue, tgt)
			}
		}
		slot, _ := w.Decode(inst)
		w.Done(slot)
	}
}

// TestWindowedStaleRefPanics pins the aliasing guard: a WindowRef used
// after its slot was recycled must panic, not address the new occupant.
func TestWindowedStaleRefPanics(t *testing.T) {
	w, err := NewWindowed(windowBlock(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := w.Open(0)
	drainWindow(w, ref)
	w.Release(ref)
	if _, ok := w.Open(1); !ok {
		t.Fatal("reopen failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale Encode did not panic")
		}
	}()
	w.Encode(1, ref, 0)
}

func TestWindowedDoubleReleasePanics(t *testing.T) {
	w, err := NewWindowed(windowBlock(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := w.Open(0)
	drainWindow(w, ref)
	w.Release(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	w.Release(ref)
}

func TestWindowedEarlyReleasePanics(t *testing.T) {
	w, err := NewWindowed(windowBlock(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := w.Open(0)
	defer func() {
		if recover() == nil {
			t.Fatal("release with outstanding instances did not panic")
		}
	}()
	w.Release(ref)
}

func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowed(nil, 1); err == nil {
		t.Fatal("nil block accepted")
	}
	if _, err := NewWindowed(windowBlock(4), 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	// An arc leaving the block is structural corruption.
	b := windowBlock(4)
	b.Templates[0].Arcs = append(b.Templates[0].Arcs, core.Arc{To: 99, Map: core.OneToOne{}})
	if _, err := NewWindowed(b, 1); err == nil {
		t.Fatal("escaping arc accepted")
	}
}

// workItem is one dispatched instance in the property harness, carrying
// the window identity it was dispatched under so execution can detect
// slot aliasing (a recycled slot would report a different window).
type workItem struct {
	inst core.Instance
	win  int64
	ref  WindowRef
}

// TestWindowedRecyclingProperty is the aliasing/exactly-once property
// suite: many windows streamed through few slots, fired by concurrent
// workers with randomized interleavings. It asserts
//
//   - exactly-once: every (window, instance) executes exactly once;
//   - no aliasing: at execution time, the instance's slot still belongs
//     to the window it was dispatched under;
//   - full recycling: all windows retire and every slot frees.
//
// Run it under -race: the visibility argument in the WindowedSM docs is
// exactly what the detector checks.
func TestWindowedRecyclingProperty(t *testing.T) {
	const (
		windows = 64
		slots   = 3
		workers = 8
	)
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(7 + trial)))
		wctx := core.Context(4 << rng.Intn(3)) // 4, 8 or 16 events per window
		w, err := NewWindowed(windowBlock(wctx), slots)
		if err != nil {
			t.Fatal(err)
		}

		freeCh := make(chan struct{}, slots+1)
		w.SetOnFree(func() {
			select {
			case freeCh <- struct{}{}:
			default:
			}
		})

		var (
			mu       sync.Mutex
			execs    = make(map[string]int) // (window,thread,local) → count
			executed atomic.Int64
			retired  atomic.Int64
		)
		total := int64(windows) * w.PerWindow()
		work := make(chan workItem, 4096)
		done := make(chan struct{})

		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range work {
					slot, local := w.Decode(it.inst)
					// Aliasing check: the slot must still hold the window
					// this instance was dispatched under.
					if got := w.Window(slot); got != it.win {
						panic(fmt.Sprintf("slot %d aliased: executing window %d, slot holds %d", slot, it.win, got))
					}
					mu.Lock()
					execs[fmt.Sprintf("%d/T%d.%d", it.win, it.inst.Thread, local)]++
					mu.Unlock()
					for _, tgt := range w.AppendConsumers(nil, new([]core.Context), it.inst) {
						if w.Decrement(tgt) {
							work <- workItem{inst: tgt, win: it.win, ref: it.ref}
						}
					}
					if w.Done(slot) {
						w.Release(it.ref)
						retired.Add(1)
					}
					if executed.Add(1) == total {
						close(done)
					}
				}
			}()
		}

		for win := int64(0); win < windows; win++ {
			ref, ok := w.Open(win)
			for !ok {
				<-freeCh
				ref, ok = w.Open(win)
			}
			// Randomize injection order within the window.
			order := rng.Perm(int(wctx))
			for _, c := range order {
				work <- workItem{inst: w.Encode(1, ref, core.Context(c)), win: win, ref: ref}
			}
		}
		<-done
		close(work)
		wg.Wait()

		if retired.Load() != windows {
			t.Fatalf("trial %d: retired %d of %d windows", trial, retired.Load(), windows)
		}
		if w.InFlight() != 0 {
			t.Fatalf("trial %d: %d windows still in flight", trial, w.InFlight())
		}
		mu.Lock()
		if int64(len(execs)) != total {
			t.Fatalf("trial %d: %d distinct executions, want %d", trial, len(execs), total)
		}
		for k, n := range execs {
			if n != 1 {
				t.Fatalf("trial %d: instance %s executed %d times", trial, k, n)
			}
		}
		mu.Unlock()
		st := w.Stats()
		if st.Opened != windows || st.Retired != windows {
			t.Fatalf("trial %d: stats %+v", trial, st)
		}
	}
}

// TestWindowedConsumersMatchState: the batch State and the WindowedSM
// expand arcs through the same thread table, so for every template of the
// property suite's blocks, every local context and every slot, the windowed
// consumers are the State's consumers re-based into that slot.
func TestWindowedConsumersMatchState(t *testing.T) {
	const slots = 3
	for _, wctx := range []core.Context{4, 8, 16} {
		b := windowBlock(wctx)
		p := core.NewProgram("window")
		p.Blocks = append(p.Blocks, b)
		s, err := NewState(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWindowed(b, slots)
		if err != nil {
			t.Fatal(err)
		}
		for _, tpl := range b.Templates {
			for local := core.Context(0); local < tpl.Instances; local++ {
				want := s.AppendConsumers(nil, new([]core.Context), core.Instance{Thread: tpl.ID, Ctx: local})
				for slot := core.Context(0); slot < slots; slot++ {
					got := w.AppendConsumers(nil, new([]core.Context), core.Instance{Thread: tpl.ID, Ctx: slot*tpl.Instances + local})
					if len(got) != len(want) {
						t.Fatalf("W=%d T%d.%d slot %d: %d consumers, state has %d", wctx, tpl.ID, local, slot, len(got), len(want))
					}
					for i, c := range got {
						gs, gl := w.Decode(c)
						if c.Thread != want[i].Thread || gs != int(slot) || gl != want[i].Ctx {
							t.Fatalf("W=%d T%d.%d slot %d: consumer %d is T%d slot %d local %d, state has %v",
								wctx, tpl.ID, local, slot, i, c.Thread, gs, gl, want[i])
						}
					}
				}
			}
		}
	}
}
