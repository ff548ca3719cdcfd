package rts

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

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
// on two kernels, as measured over 3×20 runs: TRAPEZ-2^19/1 (4 097
// instances) 19 objects and 1 288 bytes on the single-driver plane, 31 and
// 1 864 on the sharded one; FFT-64/1 (256 instances) 21 and 1 520, 44 and
// 3 096. That is the per-run State (thread table, validation, stats), the
// runner and its goroutines, and the sharded engine's lanes: nothing per
// completion, no FFT column (each context keeps its own across runs) and
// no SM array (they come back from State.Release). Before that the same
// runs allocated 27, 39, 93 and 116 objects and 35–70 KB, 64 of FFT's
// objects and 64 KiB its columns; before the run scratch, the TUB's target
// arenas and the context scratch were recycled, the four runs allocated
// ≈ 17 900 times together. Under the race detector sync.Pool drops a
// share of what it is given, so scratch, TUBs and SM arrays are regrown at
// random: TRAPEZ 39–79 and 49–94 objects, FFT 36–75 and 65–100, and bytes
// up to 545 KB, 411 KB, 113 KB and 68 KB, measured over 53×20 runs.
var runAllocsCeilings = []struct {
	name                   string
	param                  int
	shards                 int
	ceiling, bytes         float64
	raceCeiling, raceBytes float64
}{
	{"TRAPEZ", 19, 0, 24, 4 << 10, 110, 800 << 10},
	{"TRAPEZ", 19, 2, 38, 4 << 10, 130, 600 << 10},
	{"FFT", 64, 0, 27, 4 << 10, 110, 160 << 10},
	{"FFT", 64, 2, 54, 6 << 10, 140, 100 << 10},
}

// perRun calls fn once to warm up and then n times, on one P as
// testing.AllocsPerRun does, and returns the mean objects and bytes one
// call allocated.
func perRun(n int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
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

// freshScratch empties scratchPool, so that the next Run builds its
// scratch anew, as the first run in a process does. A scratch that has
// served a run holds at least one queue; New's has none.
func freshScratch() {
	for {
		if sc := scratchPool.Get().(*runScratch); len(sc.queues) == 0 {
			return
		}
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

// abortedRuns returns runs that leave the pools' scratch and SM arrays as
// dirty as a run can: a body panic with thousands of instances still
// queued and thousands of Ready Counts not yet zero (the consumer is the
// Block's first template, so those counts lead every kernel's cells), then
// a Mapping panic during arc expansion, on four kernels and both planes.
// Each run checks that it failed as it should.
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
// scratch pool, and requires each program's output bytes and work counts
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

// freshSMArrays empties the TSU's SM pool, so that the next State builds
// its arrays anew, as the first run in a process does: a sync.Pool drops
// everything it held before two collections.
func freshSMArrays() {
	runtime.GC()
	runtime.GC()
}

// TestRecycledSMArraysDoNotLeak runs each program on SM arrays another run
// grew and gave back — source 0 a 4-kernel run's, source 1 a 1-kernel
// run's, sources 2–5 those of each of abortedRuns — on both planes, and
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
			// The pool holds only what src gave back when the run starts.
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
