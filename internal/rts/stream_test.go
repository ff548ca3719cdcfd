package rts

import (
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
