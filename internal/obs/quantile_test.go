package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuantileIsAMeasurement is the reason the layout exists: a constant
// series must read back as itself, at every magnitude the repo's
// histograms see, not as the edge of whichever bucket it fell into.
func TestQuantileIsAMeasurement(t *testing.T) {
	for _, d := range []time.Duration{37, 2600 * time.Microsecond, 500 * time.Millisecond, 12 * time.Second} {
		h := &Histogram{}
		for i := 0; i < 1000; i++ {
			h.ObserveDuration(d)
		}
		for _, q := range []float64{0.50, 0.99} {
			got := h.Quantile(q)
			if diff := got - int64(d); diff > int64(d)/16 || diff < -int64(d)/16 {
				t.Errorf("%v series: Quantile(%v) = %v, more than 1/16 away", d, q, time.Duration(got))
			}
		}
	}
}

// TestHistogramIndexBounds walks the layout's corners: the exact range,
// both sides of every power of two, and the ends of int64.
func TestHistogramIndexBounds(t *testing.T) {
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, math.MaxInt64}
	for k := 5; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d, outside [0,%d)", v, i, histBuckets)
		}
		lo, width := histBounds(i)
		if v < lo || v-lo >= width {
			t.Errorf("%d -> bucket %d = [%d,+%d), which does not hold it", v, i, lo, width)
		}
		if v < 32 && (lo != v || width != 1) {
			t.Errorf("%d is not exact: bucket [%d,+%d)", v, lo, width)
		}
	}
	if histIndex(math.MaxInt64) != histBuckets-1 {
		t.Errorf("MaxInt64 -> bucket %d, want the last (%d)", histIndex(math.MaxInt64), histBuckets-1)
	}
	for _, v := range []int64{-1, -16, math.MinInt64} {
		if histIndex(v) != 0 {
			t.Errorf("histIndex(%d) = %d, want 0 (negative samples clamp)", v, histIndex(v))
		}
	}
}

// FuzzHistogramIndex checks the three properties every quantile rests
// on: a value lies inside the bounds of its index, indices are monotone
// in the value, and a bucket is at most 1/16 of its lower bound wide.
func FuzzHistogramIndex(f *testing.F) {
	for _, v := range []int64{0, 15, 16, 17, 1 << 20, 1<<20 + 1, math.MaxInt64, -1} {
		f.Add(v, v/3)
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		i, j := histIndex(a), histIndex(b)
		lo, width := histBounds(i)
		if v := max(a, 0); v < lo || v-lo >= width {
			t.Fatalf("%d -> bucket %d = [%d,+%d)", a, i, lo, width)
		}
		if width > 1 && width > lo/16 {
			t.Fatalf("bucket %d = [%d,+%d) is wider than lo/16", i, lo, width)
		}
		if (a < b && i > j) || (a > b && i < j) {
			t.Fatalf("not monotone: %d -> %d, %d -> %d", a, i, b, j)
		}
	})
}

func TestObserveAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += v >> 3 }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

// TestQuantileKnownDistribution checks the rank arithmetic on a
// hand-computable histogram: five samples of 5 and five of 15, both in
// the exact range.
func TestQuantileKnownDistribution(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 5; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.25, 5},
		{0.50, 5}, // rank 5 is the last of the fives
		{0.51, 15},
		{1.00, 15},
		{-0.5, 5},  // clamped to q=0: the smallest sample
		{1.50, 15}, // clamped to q=1
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuantileUniform checks that on uniform data every estimate is
// within the layout's 1/32 of the true quantile.
func TestQuantileUniform(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	prev := int64(0)
	for _, q := range []float64{0.10, 0.50, 0.90, 0.95, 0.99} {
		got := h.Quantile(q)
		want := int64(q * 1000)
		if got < want-want/32-1 || got > want+want/32+1 {
			t.Errorf("Quantile(%v) = %d, want %d ± 1/32", q, got, want)
		}
		if got < prev {
			t.Errorf("Quantile(%v) = %d, below the previous quantile %d", q, got, prev)
		}
		prev = got
	}
}

func TestQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should report 0")
	}
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
	// There is no overflow bucket: the largest int64 is measured like any
	// other sample.
	for i := 0; i < 4; i++ {
		h.Observe(math.MaxInt64)
	}
	if got := h.Quantile(0.99); math.MaxInt64-got > math.MaxInt64/32 {
		t.Errorf("Quantile(0.99) of MaxInt64 samples = %d", got)
	}
}

// TestSummaryQuantiles pins the histogram line of the registry summary.
func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	h.Observe(1000) // bucket [992,1024): midpoint 1008
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "n=10 sum=1045 mean=104 p50=5 p95=1008 p99=1008"; !strings.Contains(sb.String(), want) {
		t.Fatalf("summary missing %q:\n%s", want, sb.String())
	}
}
