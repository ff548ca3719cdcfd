package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tflux/internal/core"
)

// TestRecorderConcurrent hammers one recorder from many goroutines (run
// under -race in CI) and checks nothing is lost and the merged order is
// the deterministic export order.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	r.Begin()
	const lanes = 8
	const perLane = 500
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				r.Record(Event{
					Kind:  ThreadComplete,
					Lane:  lane,
					Inst:  core.Instance{Thread: 1, Ctx: core.Context(i)},
					Start: time.Duration(i) * time.Microsecond,
					Dur:   time.Microsecond,
				})
			}
		}(lane)
	}
	wg.Wait()
	events := r.Events()
	if len(events) != lanes*perLane {
		t.Fatalf("events = %d, want %d", len(events), lanes*perLane)
	}
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if a.Start > b.Start {
			t.Fatalf("event %d out of order: %v after %v", i, b.Start, a.Start)
		}
		if a.Start == b.Start && a.Lane > b.Lane {
			t.Fatalf("event %d lane tie-break broken: lane %d after %d", i, b.Lane, a.Lane)
		}
	}
	// Begin resets.
	r.Begin()
	if n := r.Len(); n != 0 {
		t.Fatalf("after Begin, %d events remain", n)
	}
}

func TestRecorderNow(t *testing.T) {
	r := NewRecorder()
	if r.Now() != 0 {
		t.Fatal("Now before Begin should be 0")
	}
	r.Begin()
	if r.Now() < 0 {
		t.Fatal("Now went backwards")
	}
}

// TestHistogramBoundaries pins the bucket edge semantics: a bucket's
// lower bound is inclusive, so 2^k opens a new bucket and 2^k−1 closes
// the one before it; count and sum see every sample, negatives included.
func TestHistogramBoundaries(t *testing.T) {
	h := &Histogram{}
	samples := []int64{0, 10, 11, 1023, 1024, 1025, 1 << 40, -3}
	for _, v := range samples {
		h.Observe(v)
	}
	for _, c := range []struct {
		v    int64
		want int64
	}{{0, 2}, {10, 1}, {11, 1}, {1023, 1}, {1024, 2}, {1 << 40, 1}} {
		if got := h.counts[histIndex(c.v)].Load(); got != c.want {
			t.Errorf("bucket of %d holds %d samples, want %d", c.v, got, c.want)
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 0+10+11+1023+1024+1025+(1<<40)-3 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i) * 1000)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("counter not memoized")
	}
	g := r.Gauge("a.depth")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 || g.Max() != 5 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}
	h := r.Histogram("a.lat")
	h.ObserveDuration(2 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("hist count = %d", h.Count())
	}

	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a.count", "counter", "3", "a.depth", "max 5", "a.lat", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestNilRegistry pins the "disabled" contract: a nil registry hands out
// nil instruments so emission sites can gate on one pointer.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatalf("nil registry WriteSummary: %v", err)
	}
	if !strings.Contains(sb.String(), "metric") {
		t.Fatalf("nil registry summary should still print the header, got %q", sb.String())
	}
}

func TestUtilization(t *testing.T) {
	events := []Event{
		{Kind: ThreadComplete, Lane: 0, Start: 0, Dur: 10 * time.Millisecond},
		{Kind: ThreadComplete, Lane: 1, Start: 0, Dur: 5 * time.Millisecond},
		{Kind: TSUCommand, Lane: 2, Start: 9 * time.Millisecond, Dur: time.Millisecond},
	}
	u := Utilization(events, 2)
	if len(u) != 2 {
		t.Fatalf("util = %v", u)
	}
	if u[0] != 1.0 || u[1] != 0.5 {
		t.Fatalf("util = %v, want [1 0.5]", u)
	}
	if got := Utilization(nil, 2); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty util = %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
