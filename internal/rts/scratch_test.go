package rts

import (
	"fmt"
	"hash/fnv"
	"strings"
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
// instances) 32 times on the single-driver plane and 44 on the sharded
// one, FFT-64/1 (256 instances) 105 and 128, of which 64 are the FFT
// body's own. What is left is the per-run State (thread table, SMs,
// validation), the runner and its goroutines, and the sharded engine's
// lanes: nothing per completion. Before the run scratch, the TUB's target
// arenas and the context scratch were recycled, the four runs allocated
// ≈ 17 900 times together. Under the race detector sync.Pool drops a
// share of what it is given, so scratch and TUBs are regrown at random:
// TRAPEZ 41–82 and 65–107 times, FFT 111–153 and 152–192, measured over
// 13×20 runs.
var runAllocsCeilings = []struct {
	name        string
	param       int
	shards      int
	ceiling     float64
	raceCeiling float64
}{
	{"TRAPEZ", 19, 0, 40, 130},
	{"TRAPEZ", 19, 2, 55, 160},
	{"FFT", 64, 0, 130, 210},
	{"FFT", 64, 2, 160, 250},
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
			run()
			got := testing.AllocsPerRun(20, run)
			if err := job.Verify(); err != nil {
				t.Fatal(err)
			}
			ceiling := c.ceiling
			if raceBuild {
				ceiling = c.raceCeiling
			}
			t.Logf("%.0f allocs per run", got)
			if got > ceiling {
				t.Fatalf("a warm run allocates %.0f times, want <= %.0f", got, ceiling)
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
	job.ResetOutput()
	st, err := Run(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(); err != nil {
		t.Fatal(err)
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
	}
}

// abortRuns leaves the pool's scratch as dirty as a run can: a body panic
// with thousands of instances still queued, then a Mapping panic during
// arc expansion, on four kernels and both planes.
func abortRuns(t *testing.T) {
	t.Helper()
	src := core.NewTemplate(1, "src", func(c core.Context) {
		if c == 0 {
			panic("kaboom")
		}
	})
	src.Instances = 20000
	p := core.NewProgram("abort")
	p.AddBlock().Add(src)
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = 8
	prod.Then(2, panicMapping{at: 3})
	cons := core.NewTemplate(2, "cons", func(core.Context) {})
	cons.Instances = 8
	pm := core.NewProgram("abort-map")
	b := pm.AddBlock()
	b.Add(prod)
	b.Add(cons)
	for _, opt := range []Options{{Kernels: 4}, {Kernels: 4, TSUShards: 4}} {
		if _, err := Run(p, opt); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("body panic: err = %v", err)
		}
		if _, err := Run(pm, opt); err == nil || !strings.Contains(err.Error(), "kaboom-map") {
			t.Fatalf("mapping panic: err = %v", err)
		}
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
