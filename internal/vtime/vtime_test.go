package vtime

import (
	"reflect"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/workload"
)

// spinProgram builds n independent DThreads each burning the same CPU
// time, priced by their Cost model at one cycle per iteration, plus a sink.
func spinProgram(n core.Context, iters int) (*core.Program, *[]float64) {
	out := make([]float64, n)
	p := core.NewProgram("spin")
	b := p.AddBlock()
	w := core.NewTemplate(1, "spin", func(ctx core.Context) {
		s := 1.0001
		for i := 0; i < iters; i++ {
			s *= 1.0000001
		}
		out[ctx] = s
	})
	w.Instances = n
	w.Cost = func(core.Context) int64 { return int64(iters) }
	sink := core.NewTemplate(2, "sink", func(core.Context) {})
	w.Then(2, core.AllToOne{})
	b.Add(w)
	b.Add(sink)
	return p, &out
}

func TestVirtualSpeedupScalesWithKernels(t *testing.T) {
	mk := func(kernels int) time.Duration {
		p, out := spinProgram(32, 200_000)
		res, err := Run(p, Config{Kernels: kernels})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range *out {
			if v == 0 {
				t.Fatal("body did not run")
			}
		}
		return res.Makespan
	}
	m1, m4 := mk(1), mk(4)
	sp := float64(m1) / float64(m4)
	if sp < 2.5 || sp > 6.5 {
		t.Fatalf("virtual 4-kernel speedup = %.2f, want near 4", sp)
	}
}

func TestVirtualOverheadDominatesFineGrains(t *testing.T) {
	// Thousands of near-empty DThreads: makespan must be dominated by the
	// serialized TSU emulator, giving speedup well below linear.
	fine := func(kernels int) time.Duration {
		p, _ := spinProgram(2048, 10)
		res, err := Run(p, Config{Kernels: kernels})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	m1, m6 := fine(1), fine(6)
	if sp := float64(m1) / float64(m6); sp > 2.5 {
		t.Fatalf("fine-grained virtual speedup = %.2f, want overhead-bound (<2.5)", sp)
	}
}

// TestVirtualSoftIgnoresDMA: TFluxSoft's kernels read shared memory in
// place, so an access-table row is priced only as cache traffic on the
// default hierarchy, with no staging copy on top (the virtual Cell's DMA
// charge lives in cellsim).
func TestVirtualSoftIgnoresDMA(t *testing.T) {
	cfg := Config{Kernels: 2}
	m := Machine(cfg)
	if !reflect.DeepEqual(m.Mem, mem.Config{}) {
		t.Fatalf("soft machine's cache model = %+v, want the default (zero)", m.Mem)
	}
	build := func() *core.Program {
		p, _ := spinProgram(4, 1000)
		p.AddBuffer("buf", 1<<20)
		p.Blocks[0].Templates[0].Access = func(core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "buf", Size: 1 << 20, Stream: true}}
		}
		return p
	}
	res, err := Run(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := hardsim.Run(build(), m)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(hard.Cycles); res.Makespan != want {
		t.Fatalf("soft makespan = %v, want the cache model's %v and nothing more", res.Makespan, want)
	}
}

func TestVirtualRunsRealWorkloads(t *testing.T) {
	// A run must execute real benchmark bodies and keep outputs
	// verifiable.
	job := workload.NewMMult(24)
	p, err := job.Build(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, Config{Kernels: 3}); err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualRunIsDeterministic: time comes from the Cost models and the
// access table, never from the host's clock, so two runs of one program
// read the same makespan (cellsim pins the same for the virtual Cell).
func TestVirtualRunIsDeterministic(t *testing.T) {
	var got [2]Result
	for i := range got {
		job := workload.NewMMult(48)
		p, err := job.Build(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, Config{Kernels: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Verify(); err != nil {
			t.Fatal(err)
		}
		got[i] = *res
	}
	if got[0] != got[1] {
		t.Errorf("two runs read %+v and %+v", got[0], got[1])
	}
}

func TestVirtualMultiBlock(t *testing.T) {
	var order []int
	p := core.NewProgram("mb")
	p.AddBlock().Add(core.NewTemplate(1, "a", func(core.Context) { order = append(order, 1) }))
	p.AddBlock().Add(core.NewTemplate(2, "b", func(core.Context) { order = append(order, 2) }))
	res, err := Run(p, Config{Kernels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestVirtualPreservesAffinity(t *testing.T) {
	p := core.NewProgram("aff")
	tpl := core.NewTemplate(1, "pinned", func(core.Context) {})
	tpl.Instances = 6
	tpl.Affinity = 1
	p.AddBlock().Add(tpl)
	if _, err := Run(p, Config{Kernels: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualConfigDefaults pins the Machine vtime models, on hardsim's
// default cache model: every virtual TFluxSoft figure in EXPERIMENTS.md
// rests on these constants.
func TestVirtualConfigDefaults(t *testing.T) {
	want := hardsim.Config{Cores: 6, TSULat: 1500, MMILat: 300, DecLat: 100, ServiceCost: 1500}
	if got := Machine(Config{Kernels: 6}); !reflect.DeepEqual(got, want) {
		t.Errorf("Machine = %+v, want %+v", got, want)
	}
}
