package obs

import (
	"fmt"
	"io"
	"math/bits"
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

// Histogram counts int64 samples (nanoseconds, bytes, batch sizes) in one
// fixed log-linear layout: values below 16 have a bucket each, and every
// power of two above is split into 16 equal sub-buckets, so a bucket is
// never wider than 1/16 of its lower bound. The bucket is computed from
// the value, not searched for. Observation is lock-free and
// allocation-free; a histogram is histBuckets counters (7.7 KB).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// histBuckets covers every non-negative int64: 16 exact buckets plus 16
// for each of the 59 powers of two from 2^4 to 2^62.
const histBuckets = 16 + 59*16

// histIndex returns the bucket of v. v>>shift keeps the top five bits
// (16..31) of any v ≥ 16, so consecutive octaves land 16 apart; below 32
// the shift is 0 and the index is v itself. Negative samples count as 0.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	shift := max(bits.Len64(uint64(v)), 5) - 5
	return shift<<4 + int(v>>shift)
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (lo, width int64) {
	shift := max(i>>4, 1) - 1
	return int64(i-shift<<4) << shift, 1 << shift
}

// Observe records one sample. Nil-receiver-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histIndex(v)].Add(1)
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

// Quantile returns the midpoint of the bucket that holds the sample of
// rank q·Count: exact below 32, within 1/32 of the sample above. q is
// clamped to [0,1]; an empty histogram reports 0. Nil-receiver-safe.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	target := min(max(q, 0), 1) * float64(h.Count())
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		seen += c
		if c > 0 && float64(seen) >= target {
			lo, width := histBounds(i)
			return lo + width/2
		}
	}
	return 0
}

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

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
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
