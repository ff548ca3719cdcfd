package dist

import (
	"testing"

	"tflux/internal/core"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// suiteResolver resolves a ProgramSpec through the workload registry, the
// way the daemon's resolver does (serve imports dist, so its
// WorkloadResolver cannot be used from here).
func suiteResolver(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
	ws, err := workload.ByName(spec.Name)
	if err != nil {
		return nil, nil, err
	}
	job := ws.Make(spec.Param)
	prog, err := job.Build(spec.Kernels, spec.Unroll)
	if err != nil {
		return nil, nil, err
	}
	job.ResetOutput()
	return prog, job.SharedBuffers(), nil
}

// warmFleetRun is one suite program on a started 2×1 loopback fleet, run
// the way tfluxd runs a warm submission: opened by content address with
// pooled TSU tables, so every session after the first recycles a worker
// replica. This is the layer the benchmark reports as
// dist.fleet_run_ms.*, measurable without the bench module.
type warmFleetRun struct {
	f      *Fleet
	wait   func() []error
	job    workload.Job
	prog   *core.Program
	svb    *core.SharedVariableBuffer
	spec   ProgramSpec
	tables *tsu.Tables
	src    map[string][]byte
	done   chan error
	last   *Stats
	id     uint32
}

func newWarmFleetRun(tb testing.TB, name string, param, unroll int, opt Options) *warmFleetRun {
	tb.Helper()
	w := &warmFleetRun{
		spec: ProgramSpec{Name: name, Param: param, Kernels: 2, Unroll: unroll},
		src:  make(map[string][]byte),
		done: make(chan error, 1),
	}
	ws, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	w.job = ws.Make(param)
	if w.prog, err = w.job.Build(w.spec.Kernels, unroll); err != nil {
		tb.Fatal(err)
	}
	w.job.RunSequential()
	w.job.ResetOutput()
	w.svb = w.job.SharedBuffers()
	for _, b := range w.prog.Buffers {
		w.src[b.Name] = append([]byte(nil), w.svb.Bytes(b.Name)...)
	}
	if w.f, w.wait, err = NewLocalFleet(2, 1, suiteResolver, opt); err != nil {
		tb.Fatal(err)
	}
	if w.tables, err = tsu.NewTables(w.prog, w.f.Kernels(), tsu.Config{}); err != nil {
		tb.Fatal(err)
	}
	w.f.Start()
	return w
}

// run executes the program once as a new session and waits for it.
func (w *warmFleetRun) run(tb testing.TB) {
	for name, b := range w.src {
		copy(w.svb.Bytes(name), b)
	}
	w.id++
	err := w.f.Open(w.id, OpenReq{
		Prog: w.prog, SVB: w.svb, Spec: w.spec, Hash: w.spec.Hash(), Tables: w.tables,
		OnDone: func(st *Stats, err error) { w.last = st; w.done <- err },
	})
	if err == nil {
		err = <-w.done
	}
	if err != nil {
		tb.Fatal(err)
	}
}

func (w *warmFleetRun) close(tb testing.TB) {
	tb.Helper()
	if err := w.job.Verify(); err != nil {
		tb.Fatal(err)
	}
	w.f.Close() //nolint:errcheck
	for i, werr := range w.wait() {
		if werr != nil {
			tb.Fatalf("node %d: %v", i, werr)
		}
	}
}

// BenchmarkFleetRun is the fleet layer in isolation: the two programs
// the serve workloads submit, warm, on two loopback nodes.
func BenchmarkFleetRun(b *testing.B) {
	for _, c := range []struct {
		tag, name     string
		param, unroll int
	}{
		{"fft32u1", "FFT", 32, 1},
		{"trapez512", "TRAPEZ", 19, 512},
	} {
		b.Run(c.tag, func(b *testing.B) {
			w := newWarmFleetRun(b, c.name, c.param, c.unroll, Options{})
			w.run(b) // install, first replica build
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.run(b)
			}
			b.StopTimer()
			w.close(b)
		})
	}
}

// fleetWarmRunAllocsCeiling is what one warm FFT-32/1 session allocated
// process-wide (coordinator loop, both workers, codec) before the region
// table was indexed and recycled; the run must stay below it.
const fleetWarmRunAllocsCeiling = 6236

func TestFleetWarmRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	w := newWarmFleetRun(t, "FFT", 32, 1, Options{})
	w.run(t)
	got := testing.AllocsPerRun(20, func() { w.run(t) })
	w.close(t)
	t.Logf("FFT-32/1 warm fleet run: %.0f allocs", got)
	if got > fleetWarmRunAllocsCeiling {
		t.Fatalf("FFT-32/1 warm fleet run allocates %.0f times, want <= %d", got, fleetWarmRunAllocsCeiling)
	}
}
