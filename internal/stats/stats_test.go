package stats

import (
	"math"
	"testing"
	"time"
)

func TestMeasureCountsRuns(t *testing.T) {
	n := 0
	ds := Measure(5, func() { n++ })
	if n != 5 || len(ds) != 5 {
		t.Fatalf("ran %d times, %d samples", n, len(ds))
	}
	if ds2 := Measure(0, func() { n++ }); len(ds2) != 1 {
		t.Fatalf("reps<1 should clamp to 1, got %d", len(ds2))
	}
}

func TestMin(t *testing.T) {
	ds := []time.Duration{5, 1, 9, 3, 7}
	if Min(ds) != 1 {
		t.Fatalf("min = %v", Min(ds))
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10, 2); s != 5 {
		t.Fatalf("speedup = %v", s)
	}
	if !math.IsNaN(Speedup(0, 2)) || !math.IsNaN(Speedup(2, 0)) {
		t.Fatal("invalid inputs must give NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) || !math.IsNaN(GeoMean([]float64{math.NaN()})) {
		t.Fatal("non-positive or NaN elements must give NaN")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
}

// TestEmptyInputs pins the empty-input contract across all the helpers:
// a defined zero, never NaN or a panic.
func TestEmptyInputs(t *testing.T) {
	if Min(nil) != 0 {
		t.Fatalf("Min(nil) = %v", Min(nil))
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{}); g != 0 {
		t.Fatalf("GeoMean(empty) = %v", g)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{}); m != 0 {
		t.Fatalf("Mean(empty) = %v", m)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2500 * time.Millisecond: "2.500s",
		2500 * time.Microsecond: "2.50ms",
		250 * time.Nanosecond:   "0.2µs", // %.1f rounds half to even
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}
