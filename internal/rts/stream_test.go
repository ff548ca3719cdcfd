package rts

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/stream"
)

// countingPipeline builds the canonical decode → filter → aggregate
// shape with per-seq execution counters on the entry stage, the
// exactly-once witness used across these tests.
func countingPipeline(w core.Context, n int64) (*stream.Pipeline, []atomic.Int32) {
	counts := make([]atomic.Int32, n)
	p := &stream.Pipeline{
		Name:   "count",
		Window: w,
		Stages: []stream.Stage{
			{Name: "decode", Instances: w, Map: core.OneToOne{}, Body: func(c stream.Ctx) {
				counts[c.Seq].Add(1)
			}},
			{Name: "filter", Instances: w, Map: core.Gather{Fan: 4}},
			{Name: "aggregate", Instances: w / 4},
		},
	}
	return p, counts
}

func TestRunStreamExactlyOnce(t *testing.T) {
	const n, w = 100, 8 // 12 full windows + a 4-event partial window
	p, counts := countingPipeline(w, n)
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for seq := range counts {
		if got := counts[seq].Load(); got != 1 {
			t.Fatalf("seq %d executed %d times", seq, got)
		}
	}
	if st.Events != n || st.ShedEvents != 0 || st.ShedWindows != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Windows != 13 || st.Padded != 4 {
		t.Fatalf("windows %d padded %d, want 13/4", st.Windows, st.Padded)
	}
	if want := int64(13 * (8 + 8 + 2)); st.Fired != want {
		t.Fatalf("fired %d, want %d", st.Fired, want)
	}
	if st.MaxInFlight > 2 {
		t.Fatalf("in-flight windows %d exceeded the %d-slot budget", st.MaxInFlight, 2)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", st.P50, st.P99)
	}
	if st.AchievedEPS <= 0 {
		t.Fatalf("achieved eps %v", st.AchievedEPS)
	}
}

// TestRunStreamShed pins the overload contract: with the Shed policy
// and a pipeline slower than the source, whole windows drop, memory
// stays bounded, and every admitted event still executes exactly once.
func TestRunStreamShed(t *testing.T) {
	const n, w = 64, 8
	p, counts := countingPipeline(w, n)
	agg := &p.Stages[2]
	agg.Body = func(stream.Ctx) { time.Sleep(3 * time.Millisecond) }
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{
		Slots: 1, Workers: 2, Policy: stream.Shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedWindows == 0 {
		t.Fatal("unbounded source with a slow 1-slot pipeline shed nothing")
	}
	if st.Events+st.ShedEvents != n {
		t.Fatalf("admitted %d + shed %d != %d offered", st.Events, st.ShedEvents, n)
	}
	if st.MaxInFlight > 1 {
		t.Fatalf("in-flight windows %d with 1 slot", st.MaxInFlight)
	}
	var executed int64
	for seq := range counts {
		got := counts[seq].Load()
		if got > 1 {
			t.Fatalf("seq %d executed %d times", seq, got)
		}
		executed += int64(got)
	}
	if executed != st.Events {
		t.Fatalf("executed %d events, stats admitted %d", executed, st.Events)
	}
}

func TestRunStreamExport(t *testing.T) {
	const n, w = 32, 8
	p, _ := countingPipeline(w, n)
	var mu sync.Mutex
	retiredWins := make(map[int64]int)
	p.Export = func(win int64, slot int) {
		mu.Lock()
		retiredWins[win]++
		mu.Unlock()
		if slot < 0 || slot >= 2 {
			t.Errorf("export slot %d out of range", slot)
		}
	}
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(retiredWins)) != st.Windows {
		t.Fatalf("export ran for %d windows, %d retired", len(retiredWins), st.Windows)
	}
	for win, c := range retiredWins {
		if c != 1 {
			t.Fatalf("window %d exported %d times", win, c)
		}
	}
}

func TestRunStreamErrors(t *testing.T) {
	p, _ := countingPipeline(8, 8)
	if _, err := RunStream(nil, stream.NewCountSource(1, 0), stream.Options{}); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if _, err := RunStream(p, nil, stream.Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
	bad := &stream.Pipeline{Window: 4} // no stages
	if _, err := RunStream(bad, stream.NewCountSource(1, 0), stream.Options{}); err == nil {
		t.Fatal("invalid pipeline accepted")
	}
}

func TestRunStreamEmptySource(t *testing.T) {
	p, _ := countingPipeline(8, 1)
	st, err := RunStream(p, stream.NewCountSource(0, 0), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.Windows != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStreamBodyPanicAborts: a panicking stage body costs one run, not
// the process. The filter stage panics at seq 5 of a 100 000-event stream;
// RunStream must return an error naming the stage, window and seq, stop
// admitting long before the source ends, never export the window that
// lost a body, and let every in-flight window retire — under Block (the
// injector may be parked waiting for a slot) and under Shed.
func TestStreamBodyPanicAborts(t *testing.T) {
	const n, w = 100000, 8
	for _, policy := range []stream.Policy{stream.Block, stream.Shed} {
		t.Run(policy.String(), func(t *testing.T) {
			p, counts := countingPipeline(w, n)
			p.Stages[1].Body = func(c stream.Ctx) {
				if c.Seq == 5 {
					panic("boom")
				}
			}
			var exportedFirst atomic.Bool
			p.Export = func(win int64, _ int) {
				if win == 0 {
					exportedFirst.Store(true)
				}
			}
			_, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: 2, Workers: 4, Policy: policy})
			if err == nil {
				t.Fatal("RunStream returned no error after a body panicked")
			}
			for _, want := range []string{"boom", "stage 1 (filter)", "window 0", "seq 5"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want it to name %q", err, want)
				}
			}
			if exportedFirst.Load() {
				t.Fatal("window 0 was exported although one of its bodies panicked")
			}
			var ran int
			for i := range counts {
				ran += int(counts[i].Load())
			}
			if ran > n/2 {
				t.Fatalf("%d of %d entry bodies ran: admission did not stop at the panic", ran, n)
			}
		})
	}
}

// TestStreamSoak is the sustained-rate soak: a paced source, windowed
// recycling under concurrent firing, and one injected chaos fault, all
// meant to run under -race (the CI stream-soak job does exactly that).
// The assertion is the streaming correctness contract: zero lost and
// zero duplicated events.
func TestStreamSoak(t *testing.T) {
	const (
		n    = 2000
		w    = 16
		rate = 50000 // events/sec offered
	)
	p, counts := countingPipeline(w, n)
	plan, err := chaos.ParseSpec("latency:node=1:after=100:dur=100us")
	if err != nil {
		t.Fatal(err)
	}
	log := chaos.NewLog()
	delay, err := plan.StageDelay(len(p.Stages), log)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := RunStream(p, stream.NewCountSource(n, rate), stream.Options{
		Slots: 4, Workers: 8, Metrics: reg, Delay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	lost, dup := 0, 0
	for seq := range counts {
		switch counts[seq].Load() {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("soak: %d lost, %d duplicated of %d events", lost, dup, n)
	}
	if st.Events != n {
		t.Fatalf("admitted %d of %d (Block policy must not drop)", st.Events, n)
	}
	if log.Count() == 0 {
		t.Fatal("chaos fault never fired")
	}
	if st.MaxInFlight > 4 {
		t.Fatalf("in-flight windows %d exceeded 4 slots", st.MaxInFlight)
	}
	if st.OfferedEPS != rate {
		t.Fatalf("offered eps %v", st.OfferedEPS)
	}
	if got := reg.Counter("stream.injected").Value(); got != n {
		t.Fatalf("stream.injected = %d", got)
	}
	if got := reg.Histogram("stream.event_latency_ns").Count(); got != n {
		t.Fatalf("latency samples = %d, want one per admitted event", got)
	}
}

// TestRunStreamSlotsCostOnlyWhatRuns: the slot count is a ceiling, not
// an allocation. Ten events at a 64-event window open one window, so a
// run under a slot budget of 30 000 000, 2^31 or MaxInt slots makes one
// slot and costs what a one-slot run costs.
func TestRunStreamSlotsCostOnlyWhatRuns(t *testing.T) {
	const n = 10
	for _, slots := range []int{30_000_000, 1 << 31, math.MaxInt} {
		p, counts := countingPipeline(64, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: slots, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%d slots: %v", slots, err)
		}
		for seq := range counts {
			if got := counts[seq].Load(); got != 1 {
				t.Fatalf("%d slots: seq %d executed %d times", slots, seq, got)
			}
		}
		if st.Events != n || st.Windows != 1 {
			t.Fatalf("%d slots: stats %+v", slots, st)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%d slots: run allocated %d bytes, want under 1 MiB", slots, d)
		}
	}
}

// TestStreamSlotRecyclingProperty is the slot-recycling property of
// RunStream: 64 windows streamed through 3 slots by 8 workers, every
// stage body recording which window occupies its Ctx.Slot. It asserts
//
//   - exactly-once: every (window, stage, local) body runs exactly once
//     and every window exports exactly once;
//   - no aliasing: no body runs on a slot while another window is live
//     there (from its first body to the end of its Export), and Export
//     reads only its own window's slot data;
//   - lazy slots: no more distinct slots are used than windows were ever
//     in flight at once, since a slot is made only when none is free.
//
// Run it under -race (the CI stream-soak step does).
func TestStreamSlotRecyclingProperty(t *testing.T) {
	const windows, slots, workers = 64, 3, 8
	for _, w := range []core.Context{4, 8, 16} {
		var (
			mu        sync.Mutex
			occupant  = [slots]int64{-1, -1, -1} // live window per slot
			runs      = make(map[[3]int64]int)   // (window, stage, local) → body runs
			exported  = make(map[int64]int)
			slotsSeen = make(map[int]bool)
			failures  []string
		)
		stamp := make([][]int64, slots) // entry body writes its window per local
		for i := range stamp {
			stamp[i] = make([]int64, w)
		}
		body := func(stage int) stream.Body {
			return func(c stream.Ctx) {
				mu.Lock()
				defer mu.Unlock()
				switch occ := occupant[c.Slot]; occ {
				case -1:
					occupant[c.Slot] = c.Window
				case c.Window:
				default:
					failures = append(failures, fmt.Sprintf("window %d ran stage %d in slot %d while window %d is live there", c.Window, stage, c.Slot, occ))
				}
				runs[[3]int64{c.Window, int64(stage), int64(c.Local)}]++
				slotsSeen[c.Slot] = true
				if stage == 0 {
					stamp[c.Slot][c.Local] = c.Window
				}
			}
		}
		p := &stream.Pipeline{
			Name:   "slots",
			Window: w,
			Stages: []stream.Stage{
				{Name: "entry", Instances: w, Map: core.OneToOne{}, Body: body(0)},
				{Name: "mid", Instances: w, Map: core.Gather{Fan: 4}, Body: body(1)},
				{Name: "agg", Instances: w / 4, Map: core.AllToOne{}, Body: body(2)},
				{Name: "tail", Instances: 1, Body: body(3)},
			},
			Export: func(win int64, slot int) {
				// Hold the slot a moment: a slot handed back before its
				// Export would be reopened and run meanwhile.
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				defer mu.Unlock()
				if occ := occupant[slot]; occ != win {
					failures = append(failures, fmt.Sprintf("export of window %d found slot %d held by window %d", win, slot, occ))
				}
				for l, got := range stamp[slot] {
					if got != win {
						failures = append(failures, fmt.Sprintf("export of window %d read slot %d local %d stamped by window %d", win, slot, l, got))
						break
					}
				}
				exported[win]++
				occupant[slot] = -1
			},
		}
		st, err := RunStream(p, stream.NewCountSource(windows*int64(w), 0), stream.Options{Slots: slots, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(failures) > 0 {
			t.Fatalf("W=%d: %d aliasing violations, first: %s", w, len(failures), failures[0])
		}
		if want := int(windows * p.PerWindow()); len(runs) != want {
			t.Fatalf("W=%d: %d distinct bodies ran, want %d", w, len(runs), want)
		}
		for k, n := range runs {
			if n != 1 {
				t.Fatalf("W=%d: body (window, stage, local) %v ran %d times", w, k, n)
			}
		}
		if len(exported) != windows {
			t.Fatalf("W=%d: %d windows exported, want %d", w, len(exported), windows)
		}
		for win, n := range exported {
			if n != 1 {
				t.Fatalf("W=%d: window %d exported %d times", w, win, n)
			}
		}
		mu.Unlock()
		if st.Windows != windows || st.Fired != windows*p.PerWindow() || st.MaxInFlight > slots {
			t.Fatalf("W=%d: stats %+v", w, st)
		}
		if used := len(slotsSeen); int64(used) > st.MaxInFlight {
			t.Fatalf("W=%d: %d distinct slots used, but at most %d windows were in flight", w, used, st.MaxInFlight)
		}
	}
}
