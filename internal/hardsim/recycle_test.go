package hardsim_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/workload"
)

// simRun is what a simulation must reproduce whichever recycled
// hierarchy it was given.
type simRun struct {
	par, seq       int64
	parMem, seqMem mem.Stats
}

// simulate builds a fresh job and program for the suite benchmark at its
// small simulated size and simulates both its parallel and its sequential
// form on cfg.
func simulate(spec workload.Spec, cfg hardsim.Config) (simRun, error) {
	sizes, _ := spec.Sizes(workload.Simulated)
	job := spec.Make(sizes[workload.Small])
	p, err := job.Build(cfg.Cores, 4)
	if err != nil {
		return simRun{}, err
	}
	par, err := hardsim.Run(p, cfg)
	if err != nil {
		return simRun{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if err := job.Verify(); err != nil {
		return simRun{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	seq, err := hardsim.Sequential(p.Buffers, job.SequentialSteps(), cfg)
	if err != nil {
		return simRun{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return simRun{int64(par.Cycles), int64(seq.Cycles), par.Mem, seq.Mem}, nil
}

// TestConcurrentRunsMatchSerial pins that simulations running at once,
// drawing on and releasing to one free list of hierarchies of four shapes
// (two configurations, parallel and sequential), count the cycles a
// serial run counts.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cfgs := []hardsim.Config{{Cores: 4}, {Cores: 4, Mem: mem.X86Config()}}
	suite := workload.Suite()
	want := make([][]simRun, len(cfgs))
	for ci, cfg := range cfgs {
		for _, spec := range suite {
			r, err := simulate(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[ci] = append(want[ci], r)
		}
	}
	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for ci, cfg := range cfgs {
			for si, spec := range suite {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := simulate(spec, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[ci][si] {
						t.Errorf("%s on %+v: concurrent run %+v, serial %+v", spec.Name, cfg.Mem.L2, got, want[ci][si])
					}
				}()
			}
		}
	}
	wg.Wait()
}

// What one warm hardsim.Run of the repo benchmark's MMULT-128/8 allocates
// on 8 cores: 164 objects and 7.8 KB, measured over 3×20 runs, the same
// under the race detector (8.2 KB). That is the run's TSU State, machine
// and event closures; before hierarchies were recycled, events unboxed
// and the access table read, it was 425 objects and 3.68 MB, nearly all
// of it the eight cores' line arrays.
const (
	warmRunAllocsCeiling     = 190
	warmRunBytesCeiling      = 16 << 10
	raceWarmRunAllocsCeiling = 200
	raceWarmRunBytesCeiling  = 20 << 10
)

// TestWarmRunAllocsCeiling caps what a warm hardsim.Run allocates.
func TestWarmRunAllocsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	job := workload.NewMMult(128)
	p, err := job.Build(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := hardsim.Run(p, hardsim.Config{Cores: 8}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	bytes := bytesPerRun(10, run)
	t.Logf("%.0f allocs, %d bytes per run", allocs, bytes)
	allocsCeiling, bytesCeiling := float64(warmRunAllocsCeiling), uint64(warmRunBytesCeiling)
	if raceBuild {
		allocsCeiling, bytesCeiling = raceWarmRunAllocsCeiling, raceWarmRunBytesCeiling
	}
	if allocs > allocsCeiling || bytes > bytesCeiling {
		t.Fatalf("a warm run allocates %.0f times and %d bytes, want <= %.0f and <= %d", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// bytesPerRun returns the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
