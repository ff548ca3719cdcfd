package tflux_test

import (
	"math"
	"strings"
	"testing"

	"tflux"
	"tflux/internal/byteview"
	"tflux/internal/obs"
)

// buildPipeline constructs produce(x4) -> transform(x4) -> reduce over a
// shared float64 slice, declared as a buffer so it runs on every platform.
func buildPipeline(vals []float64, total *float64) *tflux.Program {
	n := tflux.Context(len(vals))
	p := tflux.NewProgram("pipeline")
	p.Buffer("vals", int64(len(vals))*8)
	p.Thread(1, "produce", func(ctx tflux.Context) {
		vals[ctx] = float64(ctx) + 1
	}).Instances(n).Then(2, tflux.OneToOne{}).
		Cost(func(tflux.Context) int64 { return 100 }).
		Access(func(ctx tflux.Context) []tflux.MemRegion {
			return []tflux.MemRegion{{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		})
	p.Thread(2, "transform", func(ctx tflux.Context) {
		vals[ctx] *= 10
	}).Instances(n).Then(3, tflux.AllToOne{}).
		Cost(func(tflux.Context) int64 { return 100 }).
		Access(func(ctx tflux.Context) []tflux.MemRegion {
			return []tflux.MemRegion{
				{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8},
				{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8, Write: true},
			}
		})
	p.Thread(3, "reduce", func(tflux.Context) {
		*total = 0
		for _, v := range vals {
			*total += v
		}
	}).Cost(func(tflux.Context) int64 { return 50 }).
		Access(func(tflux.Context) []tflux.MemRegion {
			return []tflux.MemRegion{{Buffer: "vals", Size: int64(len(vals)) * 8}}
		})
	return p
}

const wantTotal = float64(10 + 20 + 30 + 40)

func TestPublicAPISoft(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	p := buildPipeline(vals, &total)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total = %v, want %v", total, wantTotal)
	}
	if st.TotalExecuted() != 9 {
		t.Fatalf("executed = %d, want 9", st.TotalExecuted())
	}
}

func TestPublicAPIHard(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	p := buildPipeline(vals, &total)
	res, err := tflux.RunHard(p, tflux.HardConfig{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total = %v, want %v", total, wantTotal)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
}

func TestPublicAPICell(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	p := buildPipeline(vals, &total)
	bufs := tflux.NewCellBuffers()
	bufs.Register("vals", byteview.Float64s(vals))
	st, err := tflux.RunCell(p, bufs, tflux.CellConfig{SPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total = %v, want %v", total, wantTotal)
	}
	if st.DMABytesIn == 0 {
		t.Fatal("no DMA traffic")
	}
}

func TestPublicAPIVirtual(t *testing.T) {
	for _, cell := range []bool{false, true} {
		vals := make([]float64, 4)
		var total float64
		p := buildPipeline(vals, &total)
		res, err := tflux.RunVirtual(p, tflux.VirtualConfig{Kernels: 2, Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		if total != wantTotal {
			t.Fatalf("cell=%t: total = %v, want %v", cell, total, wantTotal)
		}
		if res.Makespan <= 0 {
			t.Fatalf("cell=%t: no makespan", cell)
		}
	}
}

func TestImplicitBlockAndMultiBlock(t *testing.T) {
	var order []int
	p := tflux.NewProgram("blocks")
	p.Thread(1, "first", func(tflux.Context) { order = append(order, 1) })
	p.Block()
	p.Thread(2, "second", func(tflux.Context) { order = append(order, 2) })
	if _, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 3}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestValidateSurfacesErrors(t *testing.T) {
	p := tflux.NewProgram("bad")
	p.Thread(1, "a", func(tflux.Context) {}).Then(9, tflux.OneToOne{})
	if p.Validate() == nil {
		t.Fatal("dangling arc accepted")
	}
}

func TestThreadID(t *testing.T) {
	p := tflux.NewProgram("id")
	th := p.Thread(7, "x", func(tflux.Context) {})
	if th.ID() != 7 {
		t.Fatalf("ID = %d", th.ID())
	}
}

func TestAffinityViaPublicAPI(t *testing.T) {
	p := tflux.NewProgram("aff")
	p.Thread(1, "pinned", func(tflux.Context) {}).Instances(5).Affinity(1)
	st, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed[1] != 5 {
		t.Fatalf("per-kernel executed = %v", st.Executed)
	}
}

func TestRecorderViaPublicAPI(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	p := buildPipeline(vals, &total)
	rec := tflux.NewRecorder()
	if _, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 2, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	var threads int
	for _, e := range rec.Events() {
		if e.Kind == obs.ThreadComplete {
			threads++
		}
	}
	if threads == 0 {
		t.Fatal("no thread executions recorded")
	}
	if util := obs.Utilization(rec.Events(), 2); len(util) != 2 {
		t.Fatalf("utilization = %v", util)
	}
}

func TestWriteDOTViaPublicAPI(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	p := buildPipeline(vals, &total)
	var sb strings.Builder
	if err := tflux.WriteDOT(&sb, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t1 -> t2") {
		t.Fatalf("DOT output:\n%s", sb.String())
	}
}

func TestTSUSizeViaPublicAPI(t *testing.T) {
	p := tflux.NewProgram("big")
	p.Thread(1, "loop", func(tflux.Context) {}).Instances(1000)
	if _, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 2, TSUSize: 256}); err == nil {
		t.Fatal("oversized block accepted")
	}
	if _, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 2, TSUSize: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllPlatformsAgreeOnOutputs(t *testing.T) {
	// One program, four platforms, identical results: the portability
	// claim of the paper in one test.
	run := func(run func(p *tflux.Program, vals []float64) error) []float64 {
		vals := make([]float64, 8)
		var total float64
		p := buildPipelineN(vals, &total)
		if err := run(p, vals); err != nil {
			t.Fatal(err)
		}
		out := append([]float64(nil), vals...)
		return append(out, total)
	}
	soft := run(func(p *tflux.Program, _ []float64) error {
		_, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 3})
		return err
	})
	hard := run(func(p *tflux.Program, _ []float64) error {
		_, err := tflux.RunHard(p, tflux.HardConfig{Cores: 3})
		return err
	})
	cell := run(func(p *tflux.Program, vals []float64) error {
		bufs := tflux.NewCellBuffers()
		bufs.Register("vals", byteview.Float64s(vals))
		_, err := tflux.RunCell(p, bufs, tflux.CellConfig{SPEs: 3})
		return err
	})
	virt := run(func(p *tflux.Program, _ []float64) error {
		_, err := tflux.RunVirtual(p, tflux.VirtualConfig{Kernels: 3})
		return err
	})
	for i := range soft {
		if soft[i] != hard[i] || soft[i] != cell[i] || soft[i] != virt[i] {
			t.Fatalf("platforms disagree at %d: soft=%v hard=%v cell=%v virtual=%v",
				i, soft[i], hard[i], cell[i], virt[i])
		}
	}
}

// buildPipelineN is buildPipeline for arbitrary length.
func buildPipelineN(vals []float64, total *float64) *tflux.Program {
	n := tflux.Context(len(vals))
	p := tflux.NewProgram("pipelineN")
	p.Buffer("vals", int64(len(vals))*8)
	p.Thread(1, "produce", func(ctx tflux.Context) {
		vals[ctx] = float64(ctx) + 1
	}).Instances(n).Then(2, tflux.OneToOne{}).
		Access(func(ctx tflux.Context) []tflux.MemRegion {
			return []tflux.MemRegion{{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		})
	p.Thread(2, "transform", func(ctx tflux.Context) {
		vals[ctx] *= 10
	}).Instances(n).Then(3, tflux.AllToOne{}).
		Access(func(ctx tflux.Context) []tflux.MemRegion {
			return []tflux.MemRegion{
				{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8},
				{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8, Write: true},
			}
		})
	p.Thread(3, "reduce", func(tflux.Context) {
		*total = 0
		for _, v := range vals {
			*total += v
		}
	}).Access(func(tflux.Context) []tflux.MemRegion {
		return []tflux.MemRegion{{Buffer: "vals", Size: int64(len(vals)) * 8}}
	})
	return p
}

func TestRunDistLocalViaPublicAPI(t *testing.T) {
	build := func() (*tflux.Program, *tflux.CellBuffers) {
		vals := make([]float64, 4)
		var localTotal float64
		p := buildPipelineN(vals, &localTotal)
		bufs := tflux.NewCellBuffers()
		bufs.Register("vals", byteview.Float64s(vals))
		return p, bufs
	}
	st, canonical, err := tflux.RunDistLocal(build, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := canonical.Bytes("vals")
	if raw == nil {
		t.Fatal("canonical buffer missing")
	}
	// vals[i] = (i+1)*10 after the two phases.
	for i := 0; i < 4; i++ {
		got := mathFloat64(raw[i*8 : i*8+8])
		if got != float64(i+1)*10 {
			t.Fatalf("vals[%d] = %v", i, got)
		}
	}
	if st.Messages == 0 {
		t.Fatal("no protocol traffic")
	}
}

// mathFloat64 decodes a little-endian float64.
func mathFloat64(b []byte) float64 {
	var bits uint64
	for i := 7; i >= 0; i-- {
		bits = bits<<8 | uint64(b[i])
	}
	return math.Float64frombits(bits)
}

// TestVetViaPublicAPI checks the static verifier through the public
// wrapper: the reference pipeline is clean, and dropping the ordering arc
// between its two writing phases surfaces as a write-conflict finding.
func TestVetViaPublicAPI(t *testing.T) {
	vals := make([]float64, 4)
	var total float64
	rep, err := tflux.Vet(buildPipeline(vals, &total))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		var sb strings.Builder
		rep.WriteText(&sb)
		t.Fatalf("pipeline not clean:\n%s", sb.String())
	}

	// Same accesses, no arc between the writers: a DDM race.
	p := tflux.NewProgram("racy")
	p.Buffer("vals", 32)
	wr := func(ctx tflux.Context) []tflux.MemRegion {
		return []tflux.MemRegion{{Buffer: "vals", Offset: int64(ctx) * 8, Size: 8, Write: true}}
	}
	p.Thread(1, "a", func(tflux.Context) {}).Instances(4).Access(wr)
	p.Thread(2, "b", func(tflux.Context) {}).Instances(4).Access(wr)
	rep, err = tflux.Vet(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Structural() {
		t.Fatalf("unordered writers: OK=%v Structural=%v findings=%+v", rep.OK(), rep.Structural(), rep.Findings)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "write-conflict") {
		t.Fatalf("report lacks write-conflict:\n%s", sb.String())
	}
}
