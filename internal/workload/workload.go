// Package workload implements the paper's five-benchmark experimental
// suite (§5, Table 1): TRAPEZ and MMULT (Numerical-Recipes-style kernels),
// QSORT and SUSAN (MiBench), and FFT (NAS), each in two forms —
//
//   - the original sequential algorithm (the speedup baseline, carrying no
//     TFlux overheads), and
//   - the DDM parallelization used in the paper, expressed as a
//     core.Program with the same dependency structure (reductions, merge
//     trees, phase barriers) plus the cost and memory-region models the
//     simulated platforms need.
//
// The unroll factor reproduces the paper's loop-unrolling study: the
// benchmark's parallel outer loop is split into DThread instances of
// `unroll` base grains each, so larger unroll factors mean coarser
// DThreads and less TSU traffic (§6.2.2: TFluxHard peaks at small unroll,
// TFluxSoft needs ≥16, TFluxCell needs ~64).
//
// Outputs of the parallel and sequential versions are compared bitwise:
// every output element is produced by exactly one DThread running the same
// code as the sequential loop, so even floating-point results must match
// exactly.
package workload

import (
	"fmt"
	"sync"

	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// Platform selects the Table 1 problem-size column: the paper uses
// different sizes for the Simulated (S), Native (N) and Cell (C) systems.
type Platform int

// The three platforms of the evaluation.
const (
	Simulated Platform = iota
	Native
	Cell
)

func (p Platform) String() string {
	switch p {
	case Simulated:
		return "simulated"
	case Native:
		return "native"
	case Cell:
		return "cell"
	}
	return "unknown"
}

// SizeClass is the Small/Medium/Large problem-size axis of Table 1.
type SizeClass int

// The three size classes.
const (
	Small SizeClass = iota
	Medium
	Large
)

func (s SizeClass) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return "unknown"
}

// ParseSizeClass is the inverse of SizeClass.String.
func ParseSizeClass(s string) (SizeClass, error) {
	for _, c := range []SizeClass{Small, Medium, Large} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want small, medium or large)", s)
}

// Job is one benchmark at one problem size, holding its inputs, its
// sequential reference output and its parallel output.
type Job interface {
	// Name returns the benchmark name (e.g. "MMULT").
	Name() string
	// RunSequential executes the original single-threaded algorithm,
	// producing the reference output. It is the timing baseline.
	RunSequential()
	// SequentialSteps returns the cost/memory model of the sequential run
	// for the TFluxHard cycle-simulator baseline.
	SequentialSteps() []hardsim.Step
	// Build returns a fresh DDM program producing the parallel output.
	// kernels hints work distribution; unroll sets DThread granularity.
	Build(kernels, unroll int) (*core.Program, error)
	// SharedBuffers registers the program's buffers for the TFluxCell
	// substrate (zero-copy views over the job's arrays).
	SharedBuffers() *core.SharedVariableBuffer
	// ResetOutput clears the parallel output before a run.
	ResetOutput()
	// Verify compares the parallel output against the sequential
	// reference; RunSequential must have run once first.
	Verify() error
}

// Spec describes one benchmark of the suite with its Table 1 metadata.
type Spec struct {
	Name        string
	Source      string // "kernel", "MiBench", "NAS"
	Description string
	// Sizes returns the Small/Medium/Large size parameters for a
	// platform; ok is false when the paper does not run the benchmark
	// there (FFT is absent from the Cell evaluation, Figure 7).
	Sizes func(pf Platform) (sizes [3]int, ok bool)
	// SizeLabel formats a size parameter as the paper prints it.
	SizeLabel func(param int) string
	// Make builds a Job for one size parameter.
	Make func(param int) Job
}

// Suite returns the five benchmarks in the paper's Table 1 order.
func Suite() []Spec {
	return []Spec{TrapezSpec(), MMultSpec(), QSortSpec(), SusanSpec(), FFTSpec()}
}

// ByName returns the suite benchmark with the given (case-sensitive) name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Replicas prepares a loopback distributed run (dist.RunLocal and its
// variants) of one suite job. build is the constructor such a run calls
// once per node and once for the coordinator: each call makes a fresh Job
// of spec at param and builds it at (kernels, unroll). The run hands back
// the coordinator's canonical buffers; owner maps them to the Job they
// back, so the caller can Verify it.
//
// A failed Build makes build return nils, which the runtime can only
// report as "program builder returned nil". owner therefore returns the
// first Build error whatever it is asked about, for the caller to report
// beside the run's own. owner(nil), from a run that failed before it had
// buffers, is not itself an error.
func Replicas(spec Spec, param, kernels, unroll int) (build func() (*core.Program, *core.SharedVariableBuffer), owner func(*core.SharedVariableBuffer) (Job, error)) {
	var mu sync.Mutex // nodes build concurrently
	var buildErr error
	replicas := map[*core.SharedVariableBuffer]Job{}
	build = func() (*core.Program, *core.SharedVariableBuffer) {
		job := spec.Make(param)
		p, err := job.Build(kernels, unroll)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if buildErr == nil {
				buildErr = fmt.Errorf("workload: %s: build replica: %w", spec.Name, err)
			}
			return nil, nil
		}
		svb := job.SharedBuffers()
		replicas[svb] = job
		return p, svb
	}
	owner = func(svb *core.SharedVariableBuffer) (Job, error) {
		mu.Lock()
		defer mu.Unlock()
		job, ok := replicas[svb]
		if buildErr == nil && !ok && svb != nil {
			return nil, fmt.Errorf("workload: %s: no replica owns these buffers", spec.Name)
		}
		return job, buildErr
	}
	return build, owner
}

// grains computes the instance count for a parallel outer loop of n base
// grains at the given unroll factor.
func grains(n, unroll int) int {
	if unroll < 1 {
		unroll = 1
	}
	g := (n + unroll - 1) / unroll
	if g < 1 {
		g = 1
	}
	return g
}

// chunk returns the half-open range [lo, hi) of the i-th of k balanced
// chunks over n items.
func chunk(n, k, i int) (lo, hi int) {
	lo = i * n / k
	hi = (i + 1) * n / k
	return lo, hi
}

// streamThreshold is the resident-region size above which Access models
// mark regions as streamed for the Cell substrate (a comfortable fit in
// the 224 KB of usable Local Store alongside the other operands).
const streamThreshold = 48 << 10

// region builds a MemRegion, streaming it when it is too large to keep
// resident in an SPE Local Store.
func region(buf string, off, size int64, write bool) core.MemRegion {
	return core.MemRegion{Buffer: buf, Offset: off, Size: size, Write: write, Stream: size > streamThreshold}
}

// xorshift32 is the deterministic input generator used by QSORT and SUSAN;
// a fixed simple PRNG keeps every platform's input bit-identical.
func xorshift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}
