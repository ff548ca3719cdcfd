package workload

import (
	"fmt"
	"math"

	"tflux/internal/byteview"
	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// TRAPEZ: trapezoidal-rule integration of f(x) = 4/(1+x²) over [0,1]
// (whose exact value is π, making the result self-checking). The paper
// parallelizes it with no DThread dependencies other than the final
// reduction and near-zero data transfer, so it approaches ideal speedup
// on every platform (§6.1.2).
//
// The size parameter is the log2 of the interval count (Table 1: 19, 21,
// 23 on all platforms).

// trapezBaseGrains is the number of base grains the integration loop is
// split into; the unroll factor coarsens from here.
const trapezBaseGrains = 4096

// trapezCyclesPerInterval is the compute-cost model for the cycle
// simulator: one interval is a divide, two adds and a multiply.
const trapezCyclesPerInterval = 12

// Trapez is the TRAPEZ Job.
type Trapez struct {
	log2n int
	n     int

	ref      float64 // sequential result
	refDone  bool
	partials []float64 // parallel partial sums (one per instance at last Build)
	result   []float64 // 1-element buffer backing "result" (the parallel output)
}

// TrapezSpec returns the Table 1 entry for TRAPEZ.
func TrapezSpec() Spec {
	return Spec{
		Name:        "TRAPEZ",
		Source:      "kernel",
		Description: "Trapezoidal rule for integration",
		Sizes: func(Platform) ([3]int, bool) {
			return [3]int{19, 21, 23}, true
		},
		SizeLabel: func(p int) string { return fmt.Sprintf("2^%d", p) },
		Make:      func(p int) Job { return NewTrapez(p) },
	}
}

// NewTrapez builds a TRAPEZ job integrating over 2^log2n intervals.
func NewTrapez(log2n int) *Trapez {
	return &Trapez{log2n: log2n, n: 1 << log2n, result: make([]float64, 1)}
}

// Name implements Job.
func (t *Trapez) Name() string { return "TRAPEZ" }

func trapezF(x float64) float64 { return 4 / (1 + x*x) }

// integrate sums the trapezoid areas of intervals [lo, hi) of the n-way
// partition of [0,1]. Both the sequential baseline and each DThread run
// exactly this loop, so partial sums combine to the same schedule of
// additions whenever the chunk boundaries match.
func (t *Trapez) integrate(lo, hi int) float64 {
	h := 1.0 / float64(t.n)
	var s float64
	for i := lo; i < hi; i++ {
		x0 := float64(i) * h
		x1 := float64(i+1) * h
		s += (trapezF(x0) + trapezF(x1)) * h / 2
	}
	return s
}

// RunSequential implements Job.
func (t *Trapez) RunSequential() {
	t.ref = t.integrate(0, t.n)
	t.refDone = true
}

// SequentialSteps implements Job: one compute-bound step (TRAPEZ has no
// significant memory footprint).
func (t *Trapez) SequentialSteps() []hardsim.Step {
	return []hardsim.Step{{Cost: int64(t.n) * trapezCyclesPerInterval}}
}

// Build implements Job.
func (t *Trapez) Build(kernels, unroll int) (*core.Program, error) {
	inst := grains(trapezBaseGrains, unroll)
	t.partials = make([]float64, inst)
	partials := t.partials
	result := t.result
	n := t.n

	p := core.NewProgram("trapez")
	p.AddBuffer("partials", int64(inst)*8)
	p.AddBuffer("result", 8)
	b := p.AddBlock()

	work := core.NewTemplate(1, "integrate", func(ctx core.Context) {
		lo, hi := chunk(n, inst, int(ctx))
		partials[ctx] = t.integrate(lo, hi)
	})
	work.Instances = core.Context(inst)
	work.Cost = func(ctx core.Context) int64 {
		lo, hi := chunk(n, inst, int(ctx))
		return int64(hi-lo) * trapezCyclesPerInterval
	}
	work.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{region("partials", int64(ctx)*8, 8, true)}
	}

	reduce := core.NewTemplate(2, "reduce", func(core.Context) {
		var s float64
		for _, v := range partials {
			s += v
		}
		result[0] = s
	})
	reduce.Cost = func(core.Context) int64 { return int64(inst) * 4 }
	reduce.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{
			region("partials", 0, int64(inst)*8, false),
			region("result", 0, 8, true),
		}
	}

	work.Then(2, core.AllToOne{})
	b.Add(work)
	b.Add(reduce)
	return p, nil
}

// SharedBuffers implements Job.
func (t *Trapez) SharedBuffers() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	svb.Register("partials", byteview.Float64s(t.partials))
	svb.Register("result", byteview.Float64s(t.result))
	return svb
}

// ResetOutput implements Job.
func (t *Trapez) ResetOutput() {
	for i := range t.partials {
		t.partials[i] = 0
	}
	t.result[0] = 0
}

// Verify implements Job. The parallel result is read from the declared
// "result" buffer (so it is valid on every platform, including the
// distributed runtime, where only declared buffers cross address spaces).
// Partial sums reassociate the addition order, so the comparison is to
// machine precision rather than bitwise, with π as a second witness.
func (t *Trapez) Verify() error {
	if !t.refDone {
		t.RunSequential()
	}
	par := t.result[0]
	if d := math.Abs(par - t.ref); d > 1e-9 {
		return fmt.Errorf("TRAPEZ: parallel %v vs sequential %v (|Δ|=%g)", par, t.ref, d)
	}
	if d := math.Abs(par - math.Pi); d > 1e-6 {
		return fmt.Errorf("TRAPEZ: result %v is not π", par)
	}
	return nil
}
