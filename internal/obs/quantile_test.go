package obs

import (
	"strings"
	"testing"
)

// TestQuantileKnownDistribution checks the interpolation arithmetic on a
// hand-computable histogram: bounds 10/20/30, five samples in the first
// bucket and five in the second.
func TestQuantileKnownDistribution(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30})
	for i := 0; i < 5; i++ {
		h.Observe(5)  // bucket (0,10]
		h.Observe(15) // bucket (10,20]
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.25, 5},  // rank 2.5 of 5 in (0,10] → 0 + 0.5·10
		{0.50, 10}, // rank 5 exhausts the first bucket → its upper bound
		{0.75, 15}, // rank 2.5 of 5 in (10,20] → 10 + 0.5·10
		{1.00, 20}, // rank 10 exhausts the second bucket
		{-0.5, 0},  // clamped to q=0
		{1.50, 20}, // clamped to q=1
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuantileUniform checks that on uniform data the estimate lands
// near the true quantile (within one bucket of interpolation error).
func TestQuantileUniform(t *testing.T) {
	bounds := make([]int64, 10)
	for i := range bounds {
		bounds[i] = int64((i + 1) * 100)
	}
	h := newHistogram(bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.10, 0.50, 0.90, 0.95, 0.99} {
		got := h.Quantile(q)
		want := int64(q * 1000)
		if got < want-50 || got > want+50 {
			t.Errorf("Quantile(%v) = %d, want %d ± 50", q, got, want)
		}
	}
	// Monotone in q.
	if !(h.Quantile(0.5) <= h.Quantile(0.95) && h.Quantile(0.95) <= h.Quantile(0.99)) {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d",
			h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
	}
}

func TestQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should report 0")
	}
	h := newHistogram([]int64{10})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
	// Everything in the overflow bucket: report its lower edge (the
	// largest configured bound), not a fabricated interpolation.
	for i := 0; i < 4; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %d, want 10", got)
	}
}

// TestSummaryQuantiles pins the p50/p95/p99 line in the registry summary
// exporter.
func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"p50=", "p95=", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
