package vtime

import (
	"reflect"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/workload"
)

// spinProgram builds n independent DThreads each burning roughly the same
// CPU time, plus a sink.
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
	sink := core.NewTemplate(2, "sink", func(core.Context) {})
	w.Then(2, core.AllToOne{})
	b.Add(w)
	b.Add(sink)
	return p, &out
}

func TestVirtualSpeedupScalesWithKernels(t *testing.T) {
	mk := func(kernels int) time.Duration {
		best := time.Duration(0)
		// Body durations are wall-clock measurements; take the min of a
		// few runs so scheduler noise on a busy host cannot skew the
		// ratio.
		for r := 0; r < 3; r++ {
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
			if best == 0 || res.Makespan < best {
				best = res.Makespan
			}
		}
		return best
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

func TestVirtualCellChargesDMA(t *testing.T) {
	p := core.NewProgram("dma")
	p.AddBuffer("buf", 1<<20)
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "reader", func(core.Context) {})
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "buf", Size: 1 << 20, Stream: true}}
	}
	b.Add(tpl)
	res, err := Run(p, Config{Kernels: 2, Cell: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DMA == 0 {
		t.Fatal("no DMA time modeled")
	}
	// 64 transfers × 1µs setup + 1 MiB / 8 B/ns ≈ 64µs + 131µs.
	if res.DMA < 150*time.Microsecond || res.DMA > 400*time.Microsecond {
		t.Fatalf("DMA time = %v, want ≈195µs", res.DMA)
	}
	if res.Makespan < res.DMA {
		t.Fatal("makespan must include DMA time")
	}
}

func TestVirtualSoftIgnoresDMA(t *testing.T) {
	p, _ := spinProgram(4, 1000)
	res, err := Run(p, Config{Kernels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DMA != 0 {
		t.Fatalf("soft profile charged DMA: %v", res.DMA)
	}
	if res.Work == 0 {
		t.Fatal("no work measured")
	}
}

func TestVirtualRunsRealWorkloads(t *testing.T) {
	// The instrumented clone must execute real benchmark bodies and keep
	// outputs verifiable.
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

// TestVirtualConfigDefaults pins the machine vtime models for each
// platform profile and the DMA staging model: every virtual-time figure
// in EXPERIMENTS.md rests on these constants.
func TestVirtualConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want hardsim.Config
	}{
		{Config{}, hardsim.Config{TSULat: 1500, MMILat: 300, DecLat: 100, ServiceCost: 1500, Mem: freeMem()}},
		{Config{Kernels: 6, Cell: true}, hardsim.Config{Cores: 6, TSULat: 4000, MMILat: 1000, DecLat: 100, ServiceCost: 4000, Mem: freeMem()}},
	} {
		if got := machine(tc.cfg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("machine(%+v) = %+v, want %+v", tc.cfg, got, tc.want)
		}
	}
	// 1 MiB in 16 KiB transfers: 64 × 1µs setup + 2^20 B / 8 B/ns.
	if got := dmaTime([]core.MemRegion{{Size: 1 << 20}, {Size: 0}}); got != 64*time.Microsecond+131072*time.Nanosecond {
		t.Errorf("dmaTime(1 MiB) = %v", got)
	}
	// A partial chunk is one more transfer.
	if got := dmaTime([]core.MemRegion{{Size: 16<<10 + 8}}); got != 2*time.Microsecond+2049*time.Nanosecond {
		t.Errorf("dmaTime(16 KiB + 8) = %v", got)
	}
}
