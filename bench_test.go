// Benchmarks regenerating the paper's evaluation, one testing.B target per
// table/figure (see DESIGN.md §4 and EXPERIMENTS.md for the full-scale
// runs via cmd/tfluxbench — these benches use the Small configurations so
// `go test -bench=.` finishes quickly), plus micro-benchmarks of the
// runtime primitives on the critical path.
//
// Custom metrics: figure benches report "speedup" (sequential/parallel,
// the paper's y-axis) so the figure's shape is visible straight from the
// bench output; the TSU-latency bench reports "slowdown128" (the §3.3
// claim is that it stays below 1.01).
package tflux_test

import (
	"sync"
	"testing"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/rts"
	"tflux/internal/sim"
	"tflux/internal/tsu"
	"tflux/internal/vtime"
	"tflux/internal/workload"
)

// BenchmarkTable1Workloads runs every suite benchmark's sequential
// reference at its Small native size — the baseline row of Table 1.
func BenchmarkTable1Workloads(b *testing.B) {
	for _, spec := range workload.Suite() {
		sizes, _ := spec.Sizes(workload.Native)
		job := spec.Make(sizes[workload.Small])
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				job.RunSequential()
			}
		})
	}
}

// BenchmarkFig5Hard regenerates one cell of Figure 5 per suite benchmark:
// the Small problem on an 8-core TFluxHard machine. The reported "speedup"
// metric is simulated-cycles sequential / parallel.
func BenchmarkFig5Hard(b *testing.B) {
	for _, spec := range workload.Suite() {
		sizes, ok := spec.Sizes(workload.Simulated)
		if !ok {
			continue
		}
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				job := spec.Make(sizes[workload.Small])
				p, err := job.Build(8, 4)
				if err != nil {
					b.Fatal(err)
				}
				seq, err := hardsim.Sequential(p.Buffers, job.SequentialSteps(), hardsim.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := hardsim.Run(p, hardsim.Config{Cores: 8})
				if err != nil {
					b.Fatal(err)
				}
				if err := job.Verify(); err != nil {
					b.Fatal(err)
				}
				speedup = float64(seq.Cycles) / float64(res.Cycles)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkFig6Soft regenerates one cell of Figure 6 per suite benchmark:
// the Small problem under the TFluxSoft runtime with 4 kernels. Wall-clock
// parallel runs are what testing.B times; the "speedup" metric compares
// against the virtual-time model when the host is single-core.
func BenchmarkFig6Soft(b *testing.B) {
	for _, spec := range workload.Suite() {
		sizes, _ := sizesOrSkip(spec, workload.Native)
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			job := spec.Make(sizes[workload.Small])
			p, err := job.Build(4, 32)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job.ResetOutput()
				if _, err := rts.Run(p, rts.Options{Kernels: 4}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := job.Verify(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFig7Cell regenerates one cell of Figure 7 per Cell-evaluated
// benchmark: the Small problem on the Cell substrate with 4 SPEs.
func BenchmarkFig7Cell(b *testing.B) {
	for _, spec := range workload.Suite() {
		sizes, ok := spec.Sizes(workload.Cell)
		if !ok {
			continue // FFT is not in Figure 7
		}
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			job := spec.Make(sizes[workload.Small])
			p, err := job.Build(4, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job.ResetOutput()
				if _, err := cellsim.Run(p, job.SharedBuffers(), cellsim.Config{SPEs: 4}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := job.Verify(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTSULatency regenerates the §3.3 sensitivity claim: the
// "slowdown128" metric is runtime at TSULat=128 over TSULat=1 and should
// stay below 1.01 (<1%).
func BenchmarkTSULatency(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		cycles := func(lat sim.Time) sim.Time {
			job := workload.NewMMult(128)
			p, err := job.Build(8, 8)
			if err != nil {
				b.Fatal(err)
			}
			res, err := hardsim.Run(p, hardsim.Config{Cores: 8, TSULat: lat})
			if err != nil {
				b.Fatal(err)
			}
			return res.Cycles
		}
		slowdown = float64(cycles(128)) / float64(cycles(1))
	}
	b.ReportMetric(slowdown, "slowdown128")
}

// BenchmarkUnroll regenerates the unroll study's two endpoints on the
// vtime soft machine, against the sequential program on the same machine:
// "speedup1" (unroll 1, fine-grained and overhead/cache-bound) vs
// "speedup16" (unroll 16, the paper's coarse-grain regime). The gap is §6.2.2's observation that TFluxSoft
// needs coarse DThreads.
func BenchmarkUnroll(b *testing.B) {
	var s1, s16 float64
	for i := 0; i < b.N; i++ {
		measure := func(unroll int) float64 {
			job := workload.NewMMult(256)
			p, err := job.Build(4, unroll)
			if err != nil {
				b.Fatal(err)
			}
			seq, err := hardsim.Sequential(p.Buffers, job.SequentialSteps(), vtime.Machine(vtime.Config{}))
			if err != nil {
				b.Fatal(err)
			}
			res, err := vtime.Run(p, vtime.Config{Kernels: 4})
			if err != nil {
				b.Fatal(err)
			}
			return float64(seq.Cycles) / float64(res.Makespan)
		}
		s1, s16 = measure(1), measure(16)
	}
	b.ReportMetric(s1, "speedup1")
	b.ReportMetric(s16, "speedup16")
}

// BenchmarkTSUBudget reports the §4.1 hardware-cost estimate as a metric.
func BenchmarkTSUBudget(b *testing.B) {
	var t int64
	for i := 0; i < b.N; i++ {
		t = hardsim.TransistorBudget(256, 27)
	}
	b.ReportMetric(float64(t), "transistors")
}

// --- Micro-benchmarks of the runtime primitives ---

// BenchmarkTUBPushDrain measures the TUB fast path: one completion record
// deposited and drained.
func BenchmarkTUBPushDrain(b *testing.B) {
	tub := tsu.NewTUB(4, tsu.TUBConfig{})
	var recs []tsu.Completion
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tub.Push(tsu.Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}})
		recs = tub.Drain(recs[:0])
	}
}

// BenchmarkStateComplete measures the TSU synchronization engine's
// post-processing of one completion (expand + decrement + done). The
// state is rebuilt whenever its instance pool is exhausted, so ns/op is
// honest for any b.N.
func BenchmarkStateComplete(b *testing.B) {
	const pool = 1 << 20
	newState := func() *tsu.State {
		p := core.NewProgram("bench")
		blk := p.AddBlock()
		w := core.NewTemplate(1, "w", func(core.Context) {})
		w.Instances = pool
		sink := core.NewTemplate(2, "s", func(core.Context) {})
		w.Then(2, core.AllToOne{})
		blk.Add(w)
		blk.Add(sink)
		st, err := tsu.NewState(p, 8)
		if err != nil {
			b.Fatal(err)
		}
		st.CompleteInto(nil, st.Start().Inst, 0) // load the block
		return st
	}
	st := newState()
	next := core.Context(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == pool-1 {
			b.StopTimer()
			st = newState()
			next = 0
			b.StartTimer()
		}
		st.CompleteInto(nil, core.Instance{Thread: 1, Ctx: next}, 0)
		next++
	}
}

// BenchmarkRTSDispatch measures the end-to-end software-runtime cost per
// DThread: thousands of trivial threads through kernels, TUB and emulator.
func BenchmarkRTSDispatch(b *testing.B) {
	const threads = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := core.NewProgram("dispatch")
		t := core.NewTemplate(1, "t", func(core.Context) {})
		t.Instances = threads
		p.AddBlock().Add(t)
		if _, err := rts.Run(p, rts.Options{Kernels: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/threads, "ns/dthread")
}

// BenchmarkMESIAccess measures the cache model's per-line cost with
// cross-core sharing.
func BenchmarkMESIAccess(b *testing.B) {
	h := mem.NewHierarchy(4, mem.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := i & 3
		h.Access(c, uint64(i%4096)*64, 64, i%7 == 0)
	}
}

// BenchmarkHardSimThread measures simulated-machine throughput: cycles of
// event-loop work per simulated DThread.
func BenchmarkHardSimThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.NewProgram("hs")
		t := core.NewTemplate(1, "t", func(core.Context) {})
		t.Instances = 1024
		t.Cost = func(core.Context) int64 { return 100 }
		p.AddBlock().Add(t)
		if _, err := hardsim.Run(p, hardsim.Config{Cores: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func sizesOrSkip(spec workload.Spec, pf workload.Platform) ([3]int, bool) {
	return spec.Sizes(pf)
}

// BenchmarkTUBSegmentation is the §4.2 ablation behind the TUB's
// partitioned design: many kernels depositing completions concurrently
// against a segmented TUB vs one segment under one lock. The "misses" metric
// counts try-lock skips (contention the segmentation absorbs). The win
// only materializes when writers truly run in parallel; on a single-CPU
// host the single lock is uncontended and the segment scan is pure
// overhead — which is itself the paper's point that the design targets
// multiprocessors.
func BenchmarkTUBSegmentation(b *testing.B) {
	run := func(b *testing.B, cfg tsu.TUBConfig) {
		const writers = 8
		tub := tsu.NewTUB(writers, cfg)
		stop := make(chan struct{})
		go func() {
			var recs []tsu.Completion
			for {
				recs = tub.Drain(recs[:0])
				if len(recs) == 0 && !tub.Wait(stop) {
					return
				}
			}
		}()
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/writers + 1
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tub.Push(tsu.Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}, Kernel: tsu.KernelID(w)})
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		close(stop)
		b.ReportMetric(float64(tub.Stats().TryMisses)/float64(b.N), "misses/op")
	}
	b.Run("segmented", func(b *testing.B) { run(b, tsu.TUBConfig{Segments: 16}) })
	b.Run("singlelock", func(b *testing.B) { run(b, tsu.TUBConfig{Segments: 1}) })
}

// BenchmarkDistDispatch measures the distributed runtime's per-DThread
// round-trip cost — dispatch with imports over loopback TCP, remote
// execution, export return, post-processing — reported as ns/dthread.
func BenchmarkDistDispatch(b *testing.B) {
	const threads = 256
	for i := 0; i < b.N; i++ {
		build := func() (*core.Program, *core.SharedVariableBuffer) {
			data := make([]byte, threads*8)
			p := core.NewProgram("distbench")
			p.AddBuffer("data", int64(len(data)))
			t := core.NewTemplate(1, "t", func(core.Context) {})
			t.Instances = threads
			t.Access = func(ctx core.Context) []core.MemRegion {
				return []core.MemRegion{{Buffer: "data", Offset: int64(ctx) * 8, Size: 8, Write: true}}
			}
			p.AddBlock().Add(t)
			svb := core.NewSharedVariableBuffer()
			svb.Register("data", data)
			return p, svb
		}
		if _, _, err := dist.RunLocal(build, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/threads, "ns/dthread")
}

// BenchmarkThreadIndexing is the §4.2 Thread-Indexing ablation: Ready
// Count updates with the TKT (direct SM access) vs the sequential SM
// search it replaces, at the paper's 27-kernel scale.
func BenchmarkThreadIndexing(b *testing.B) {
	const pool = 1 << 20
	run := func(b *testing.B, linear bool) {
		newState := func() *tsu.State {
			p := core.NewProgram("tktbench")
			blk := p.AddBlock()
			w := core.NewTemplate(1, "w", func(core.Context) {})
			w.Instances = pool
			sink := core.NewTemplate(2, "s", func(core.Context) {})
			w.Then(2, core.AllToOne{})
			blk.Add(w)
			blk.Add(sink)
			st, err := tsu.NewState(p, 27)
			if err != nil {
				b.Fatal(err)
			}
			st.SetLinearSMSearch(linear)
			st.CompleteInto(nil, st.Start().Inst, 0)
			return st
		}
		st := newState()
		next := core.Context(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if next == pool-1 {
				b.StopTimer()
				st = newState()
				next = 0
				b.StartTimer()
			}
			st.CompleteInto(nil, core.Instance{Thread: 1, Ctx: next}, 0)
			next++
		}
	}
	b.Run("tkt", func(b *testing.B) { run(b, false) })
	b.Run("linearsearch", func(b *testing.B) { run(b, true) })
}
