// Package stats implements the paper's measurement methodology (§5):
// multiple runs for statistical significance on native platforms, the
// min-over-variants selection used for the unroll study, and speedup
// computation against the original sequential baseline.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Measure runs f reps times and returns each run's wall-clock duration.
// reps < 1 is treated as 1.
func Measure(reps int, f func()) []time.Duration {
	if reps < 1 {
		reps = 1
	}
	out := make([]time.Duration, reps)
	for i := range out {
		start := time.Now()
		f()
		out[i] = time.Since(start)
	}
	return out
}

// Min returns the smallest duration; zero for an empty slice.
func Min(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// Speedup returns seq/par: how many times the parallel execution is faster
// than the sequential one. Non-positive inputs yield NaN rather than a
// misleading number.
func Speedup(seq, par float64) float64 {
	if seq <= 0 || par <= 0 {
		return math.NaN()
	}
	return seq / par
}

// GeoMean returns the geometric mean of xs (the conventional average for
// speedups, used for the paper's "average speedup" claims). Empty input
// returns 0 — a defined sentinel callers can render — while non-positive
// or NaN elements yield NaN (the data itself is invalid).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FormatDuration renders a duration with sensible precision for tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}
