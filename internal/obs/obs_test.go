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

// TestHistogramBoundaries pins the bucket edge semantics: a sample equal
// to a bound lands in that bound's bucket; one past it lands in the
// next; anything beyond the last bound lands in the overflow bucket.
func TestHistogramBoundaries(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{0, 10} {
		h.Observe(v)
	}
	h.Observe(11)   // (10, 100]
	h.Observe(100)  // (10, 100]
	h.Observe(101)  // (100, 1000]
	h.Observe(1000) // (100, 1000]
	h.Observe(1001) // overflow
	h.Observe(1 << 40)

	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets = %v / %v", bounds, counts)
	}
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 0+10+11+100+101+1000+1001+(1<<40) {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
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
	h := r.Histogram("a.lat", LatencyBuckets)
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
	sb.Reset()
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "metric,kind,value\n") {
		t.Fatalf("csv header missing:\n%s", sb.String())
	}
}

// TestNilRegistry pins the "disabled" contract: a nil registry hands out
// nil instruments so emission sites can gate on one pointer.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
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
