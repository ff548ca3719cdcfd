package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-receiver-safe, so code holding a counter from a nil Registry can
// update it unconditionally.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Set overwrites the value (used to publish end-of-run totals computed
// elsewhere, e.g. tsu.Stats).
func (c *Counter) Set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that also tracks its high-water
// mark (e.g. TSU ready-queue depth). Update methods are
// nil-receiver-safe, matching Counter.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set overwrites the value and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add moves the value by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(delta))
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-bucket histogram of int64 samples (typically
// nanoseconds or bytes). Bucket i counts samples ≤ bounds[i]; one
// overflow bucket counts the rest. Observation is lock-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64
}

// newHistogram builds a histogram with the given ascending upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. Nil-receiver-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i, j := 0, len(h.bounds)
	for i < j {
		m := (i + j) / 2
		if v <= h.bounds[m] {
			j = m
		} else {
			i = m + 1
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the total number of samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the bucket upper bounds and the per-bucket counts (the
// last count is the overflow bucket).
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	bounds = append([]int64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// LatencyBuckets is the default bucket layout for wall-clock latency
// histograms: 1µs to 10s, decade-spaced with a 3× midpoint.
var LatencyBuckets = []int64{
	int64(time.Microsecond), 3 * int64(time.Microsecond),
	int64(10 * time.Microsecond), 3 * int64(10*time.Microsecond),
	int64(100 * time.Microsecond), 3 * int64(100*time.Microsecond),
	int64(time.Millisecond), 3 * int64(time.Millisecond),
	int64(10 * time.Millisecond), 3 * int64(10*time.Millisecond),
	int64(100 * time.Millisecond), int64(time.Second), int64(10 * time.Second),
}

// ByteBuckets is the default bucket layout for payload-size histograms.
var ByteBuckets = []int64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20,
}

// CountBuckets is the default bucket layout for small-count histograms
// (e.g. batch occupancy, queue depth samples).
var CountBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Registry is a named collection of instruments. Lookup is mutex-guarded
// and intended for setup and export; hot paths hold the returned
// instrument pointer. A nil *Registry is a valid "disabled" registry:
// its lookup methods return nil, and emission sites gate on that.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls keep the original bounds). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// metricRow is one exported line of the registry.
type metricRow struct {
	name, kind, value string
}

func (r *Registry) rows() []metricRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows []metricRow
	for name, c := range r.counters {
		rows = append(rows, metricRow{name, "counter", fmt.Sprintf("%d", c.Value())})
	}
	for name, g := range r.gauges {
		rows = append(rows, metricRow{name, "gauge", fmt.Sprintf("%d (max %d)", g.Value(), g.Max())})
	}
	for name, h := range r.hists {
		n := h.Count()
		mean := int64(0)
		if n > 0 {
			mean = h.Sum() / n
		}
		rows = append(rows, metricRow{name, "histogram",
			fmt.Sprintf("n=%d sum=%d mean=%d p50=%d p95=%d p99=%d",
				n, h.Sum(), mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// Quantile returns a bucket-interpolated estimate of the q-quantile:
// the bucket covering the quantile is located and the value is linearly
// interpolated between its bounds by the sample's rank within it. The
// overflow bucket has no upper bound, so quantiles landing there report
// its lower edge. q is clamped to [0,1]; an empty histogram reports 0.
// Nil-receiver-safe.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(seen)+float64(c) >= target {
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return lo // overflow bucket: no upper bound to interpolate to
			}
			frac := (target - float64(seen)) / float64(c)
			return lo + int64(frac*float64(h.bounds[i]-lo)+0.5)
		}
		seen += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// WriteSummary renders the registry as an aligned name/kind/value table
// sorted by metric name.
func (r *Registry) WriteSummary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tkind\tvalue")
	for _, row := range r.rows() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", row.name, row.kind, row.value)
	}
	return tw.Flush()
}

// WriteCSV renders the registry as "metric,kind,value" CSV rows sorted
// by metric name.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "metric,kind,value"); err != nil {
		return err
	}
	for _, row := range r.rows() {
		if _, err := fmt.Fprintf(w, "%s,%s,%q\n", row.name, row.kind, row.value); err != nil {
			return err
		}
	}
	return nil
}
