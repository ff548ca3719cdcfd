package rts

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	_ "unsafe" // for go:linkname

	"tflux/internal/core"
	"tflux/internal/workload"
)

// fineGrainJob builds one of the fine-grain programs the repository
// benchmark times: TRAPEZ-2^19 or FFT-64, at unroll 1.
func fineGrainJob(t testing.TB, name string, param, kernels int) (workload.Job, *core.Program) {
	t.Helper()
	ws, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	job := ws.Make(param)
	job.RunSequential()
	p, err := job.Build(kernels, 1)
	if err != nil {
		t.Fatal(err)
	}
	return job, p
}

// What one warm rts.Run of the benchmark's fine-grain programs allocates
// on two kernels: TRAPEZ-2^19/1 (4 097 instances) 17 objects and 1 016
// bytes on the single-driver plane, 29 and 1 592 on the sharded one;
// FFT-64/1 (256 instances) 19 and 1 248, 42 and 2 824. That is the
// thread table, the runner and its goroutines, and the sharded engine's
// lanes: nothing per completion, no FFT column (each context keeps its own
// across runs), and no State, SM array, TUB or run scratch (they come back
// from the free lists). While the State's SM arrays, the TUB and the run
// scratch sat in sync.Pools the same runs allocated 19, 31, 21 and 44
// objects and 1 288, 1 864, 1 520 and 3 096 bytes, and under the race
// detector, which makes a sync.Pool drop a share of what it is given, up
// to 79, 94, 75 and 100 objects and 545 KB, 411 KB, 113 KB and 68 KB.
// Before the SM arrays and FFT columns were recycled they allocated 27,
// 39, 93 and 116 objects and 35–70 KB; before the run scratch, the TUB's
// target arenas and the context scratch were, ≈ 17 900 times together.
// Under the race detector, which perturbs the schedule, a run now and
// then meets a deeper queue or TUB than the warm-up did and grows it once:
// over 10×20 runs each, up to 17, 30, 19 and 42 objects and 17 408,
// 10 805, 3 296 and 5 554 bytes, so its ceilings stay separate.
var runAllocsCeilings = []struct {
	name                   string
	param                  int
	shards                 int
	ceiling, bytes         float64
	raceCeiling, raceBytes float64
}{
	{"TRAPEZ", 19, 0, 21, 2 << 10, 24, 96 << 10},
	{"TRAPEZ", 19, 2, 34, 3 << 10, 38, 64 << 10},
	{"FFT", 64, 0, 23, 3 << 10, 26, 32 << 10},
	{"FFT", 64, 2, 48, 5 << 10, 54, 32 << 10},
}

// perRun calls fn once to warm up and then n times, on one P as
// testing.AllocsPerRun does, and returns the mean objects and bytes one
// call allocated.
func perRun(n int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	return measure(n, fn)
}

// measure calls fn n times and returns the mean objects and bytes one call
// allocated.
func measure(n int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func TestRunAllocsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	for _, c := range runAllocsCeilings {
		t.Run(fmt.Sprintf("%s/shards=%d", c.name, c.shards), func(t *testing.T) {
			job, p := fineGrainJob(t, c.name, c.param, 2)
			run := func() {
				job.ResetOutput()
				if _, err := Run(p, Options{Kernels: 2, TSUShards: c.shards}); err != nil {
					t.Fatal(err)
				}
			}
			allocs, bytes := perRun(20, run)
			if err := job.Verify(); err != nil {
				t.Fatal(err)
			}
			ceiling, byteCeiling := c.ceiling, c.bytes
			if raceBuild {
				ceiling, byteCeiling = c.raceCeiling, c.raceBytes
			}
			t.Logf("%.1f allocs, %.0f bytes per run", allocs, bytes)
			if allocs > ceiling {
				t.Errorf("a warm run allocates %.1f times, want <= %.0f", allocs, ceiling)
			}
			if bytes > byteCeiling {
				t.Errorf("a warm run allocates %.0f bytes, want <= %.0f", bytes, byteCeiling)
			}
		})
	}
}

// TestRunAllocsSurviveGC pins that what a run recycles survives garbage
// collection: after five warm runs and two collections, which empty a
// sync.Pool, the next run of each TestRunAllocsCeiling case stays within
// the warm byte ceiling. With the State's SM arrays, the TUB and the run
// scratch in sync.Pools, the four runs after two collections allocated
// 1 086 360, 902 992, 157 688 and 140 640 bytes.
func TestRunAllocsSurviveGC(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	for _, c := range runAllocsCeilings {
		t.Run(fmt.Sprintf("%s/shards=%d", c.name, c.shards), func(t *testing.T) {
			job, p := fineGrainJob(t, c.name, c.param, 2)
			run := func() {
				job.ResetOutput()
				if _, err := Run(p, Options{Kernels: 2, TSUShards: c.shards}); err != nil {
					t.Fatal(err)
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for range 5 {
				run()
			}
			runtime.GC()
			runtime.GC()
			_, bytes := measure(1, run)
			if err := job.Verify(); err != nil {
				t.Fatal(err)
			}
			byteCeiling := c.bytes
			if raceBuild {
				byteCeiling = c.raceBytes
			}
			t.Logf("%.0f bytes in the run after two collections", bytes)
			if bytes > byteCeiling {
				t.Errorf("the run after two collections allocates %.0f bytes, want <= %.0f", bytes, byteCeiling)
			}
		})
	}
}

// freshScratch empties the scratch list, so that the next Run builds its
// scratch anew, as the first run in a process does.
func freshScratch() {
	for scratches.Get() != nil {
	}
}

// runRecord is what a run must reproduce whatever scratch it was given:
// its output bytes and its work counts.
type runRecord struct {
	out                                       uint64 // FNV-1a over the program's buffers
	instances, decrements, crossShard, pushes int64
}

func recordRun(t *testing.T, job workload.Job, p *core.Program, opt Options) runRecord {
	t.Helper()
	rec, err := runAndRecord(job, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// runAndRecord is recordRun for a goroutine other than the test's: it
// returns what went wrong instead of failing the test.
func runAndRecord(job workload.Job, p *core.Program, opt Options) (runRecord, error) {
	job.ResetOutput()
	st, err := Run(p, opt)
	if err != nil {
		return runRecord{}, err
	}
	if err := job.Verify(); err != nil {
		return runRecord{}, err
	}
	h := fnv.New64a()
	svb := job.SharedBuffers()
	for _, b := range p.Buffers {
		h.Write(svb.Bytes(b.Name)) //nolint:errcheck // hash.Hash never fails
	}
	return runRecord{
		out:        h.Sum64(),
		instances:  st.TotalExecuted(),
		decrements: st.TSU.Decrements,
		crossShard: st.CrossShardDecrements,
		pushes:     st.TUB.Pushes,
	}, nil
}

// abortedRuns returns runs that leave the free lists' scratch, TUBs and
// States as dirty as a run can: a body panic with thousands of instances
// still queued and thousands of Ready Counts not yet zero (the consumer is
// the Block's first template, so those counts lead every kernel's cells),
// a Mapping panic during arc expansion, and a TSU violation with the
// Block partly completed, on four kernels and both planes. Each run checks
// that it failed as it should.
func abortedRuns(t *testing.T) []func() {
	t.Helper()
	sink := core.NewTemplate(2, "sink", func(core.Context) {})
	sink.Instances = 20000
	src := core.NewTemplate(1, "src", func(c core.Context) {
		if c == 0 {
			panic("kaboom")
		}
	})
	src.Instances = 20000
	src.Then(2, core.OneToOne{})
	p := core.NewProgram("abort")
	bp := p.AddBlock()
	bp.Add(sink)
	bp.Add(src)
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = 8
	prod.Then(2, panicMapping{at: 3})
	cons := core.NewTemplate(2, "cons", func(core.Context) {})
	cons.Instances = 8
	pm := core.NewProgram("abort-map")
	b := pm.AddBlock()
	b.Add(prod)
	b.Add(cons)
	pv := tsuViolationProgram()
	var runs []func()
	for _, opt := range []Options{{Kernels: 4}, {Kernels: 4, TSUShards: 4}} {
		runs = append(runs, func() {
			if _, err := Run(p, opt); err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("body panic: err = %v", err)
			}
		}, func() {
			if _, err := Run(pm, opt); err == nil || !strings.Contains(err.Error(), "kaboom-map") {
				t.Fatalf("mapping panic: err = %v", err)
			}
		}, func() {
			if _, err := Run(pv, opt); err == nil || !strings.Contains(err.Error(), "TSU violation") {
				t.Fatalf("TSU violation: err = %v", err)
			}
		})
	}
	return runs
}

// abortRuns runs every one of abortedRuns in turn.
func abortRuns(t *testing.T) {
	t.Helper()
	for _, run := range abortedRuns(t) {
		run()
	}
}

// TestRecycledScratchDoesNotLeak sends aborted runs and then programs
// with different thread-ID spaces, kernel counts and planes through one
// scratch list, and requires each program's output bytes and work counts
// to equal those of its run on fresh scratch.
func TestRecycledScratchDoesNotLeak(t *testing.T) {
	qsort, _ := workload.QSortSpec().Sizes(workload.Native)
	cases := []struct {
		name           string
		param, kernels int
		opt            Options
	}{
		{"FFT", 64, 2, Options{Kernels: 2}},
		{"TRAPEZ", 19, 1, Options{Kernels: 1}},
		{"QSORT", qsort[workload.Small], 4, Options{Kernels: 4, TSUShards: 4}},
	}
	jobs := make([]workload.Job, len(cases))
	progs := make([]*core.Program, len(cases))
	want := make([]runRecord, len(cases))
	for i, c := range cases {
		jobs[i], progs[i] = fineGrainJob(t, c.name, c.param, c.kernels)
		freshScratch()
		want[i] = recordRun(t, jobs[i], progs[i], c.opt)
	}
	check := func(i int) {
		t.Helper()
		if got := recordRun(t, jobs[i], progs[i], cases[i].opt); got != want[i] {
			t.Fatalf("%s on recycled scratch: %+v, on fresh scratch %+v", cases[i].name, got, want[i])
		}
	}
	abortRuns(t)
	for i := range cases {
		check(i)
	}
	abortRuns(t)
	for i := len(cases) - 1; i >= 0; i-- {
		check(i)
	}
}

// freshSMArrays is package tsu's test-only hook that empties its lists of
// States and TUBs, so that the next State builds its SM arrays anew, as
// the first run in a process does. It is linked by name, so a tsu without
// it fails to link rather than leaving the lists full.
//
//go:linkname freshSMArrays tflux/internal/tsu.dropFree
func freshSMArrays()

// TestRecycledSMArraysDoNotLeak runs each program on SM arrays another run
// grew and gave back — source 0 a 4-kernel run's, source 1 a 1-kernel
// run's, sources 2–7 those of each of abortedRuns — on both planes, and
// requires its output bytes and work counts to equal those of its run on
// arrays built fresh, and then again with every case running at once.
func TestRecycledSMArraysDoNotLeak(t *testing.T) {
	qsort, _ := workload.QSortSpec().Sizes(workload.Native)
	cases := []struct {
		name           string
		param, kernels int
		opt            Options
	}{
		{"FFT", 64, 2, Options{Kernels: 2}},
		{"FFT", 64, 2, Options{Kernels: 2, TSUShards: 2}},
		{"TRAPEZ", 19, 3, Options{Kernels: 3}},
		{"QSORT", qsort[workload.Small], 2, Options{Kernels: 2, TSUShards: 2}},
	}
	jobs := make([]workload.Job, len(cases))
	progs := make([]*core.Program, len(cases))
	want := make([]runRecord, len(cases))
	for i, c := range cases {
		jobs[i], progs[i] = fineGrainJob(t, c.name, c.param, c.kernels)
		freshSMArrays()
		want[i] = recordRun(t, jobs[i], progs[i], c.opt)
	}
	wide, wideProg := fineGrainJob(t, "QSORT", qsort[workload.Small], 4)
	narrow, narrowProg := fineGrainJob(t, "TRAPEZ", 19, 1)
	sources := []func(){
		func() { recordRun(t, wide, wideProg, Options{Kernels: 4}) },
		func() { recordRun(t, narrow, narrowProg, Options{Kernels: 1}) },
	}
	sources = append(sources, abortedRuns(t)...)
	for si, src := range sources {
		for i, c := range cases {
			// The list holds only what src gave back when the run starts.
			freshSMArrays()
			src()
			if got := recordRun(t, jobs[i], progs[i], c.opt); got != want[i] {
				t.Fatalf("%s %+v on the SM arrays of source %d: %+v, on fresh arrays %+v", c.name, c.opt, si, got, want[i])
			}
		}
	}
	// Last, every case at once, each on its own goroutine and job, so the
	// arrays pass between runs that overlap.
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got, err := runAndRecord(jobs[i], progs[i], c.opt)
				if err != nil || got != want[i] {
					t.Errorf("%s %+v beside the other cases: %+v (err %v), alone on fresh arrays %+v", c.name, c.opt, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
