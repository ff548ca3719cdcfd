package workload

import (
	"fmt"
	"math"
	"math/cmplx"

	"tflux/internal/byteview"
	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// FFT: the NAS-style 2-D FFT over an n×n matrix of complex numbers,
// computed as independent row FFTs, then independent column FFTs, then a
// scaling pass. The phases parallelize perfectly inside themselves but
// carry an implicit all-to-all synchronization between them, which is what
// limits the benchmark's speedup in the paper (§6.1.2).
//
// The size parameter is n (Table 1: 32, 64, 128). The paper's Figure 7
// omits FFT, so the benchmark reports no Cell sizes.

// fftCyclesPerButterfly models one radix-2 butterfly (complex multiply and
// two adds) including loop overhead.
const fftCyclesPerButterfly = 14

// FFT is the FFT Job.
type FFT struct {
	n       int
	input   []complex128
	par     []complex128
	ref     []complex128
	refDone bool
}

// FFTSpec returns the Table 1 entry for FFT.
func FFTSpec() Spec {
	return Spec{
		Name:        "FFT",
		Source:      "NAS",
		Description: "FFT on a matrix of complex numbers",
		Sizes: func(pf Platform) ([3]int, bool) {
			if pf == Cell {
				return [3]int{}, false // not evaluated on Cell (Figure 7)
			}
			return [3]int{32, 64, 128}, true
		},
		SizeLabel: func(p int) string { return fmt.Sprintf("%d", p) },
		Make:      func(p int) Job { return NewFFT(p) },
	}
}

// NewFFT builds an FFT job over an n×n complex matrix (n a power of two).
func NewFFT(n int) *FFT {
	if n&(n-1) != 0 || n < 2 {
		panic("workload: FFT size must be a power of two >= 2")
	}
	f := &FFT{
		n:     n,
		input: make([]complex128, n*n),
		par:   make([]complex128, n*n),
		ref:   make([]complex128, n*n),
	}
	s := uint32(0x1234567)
	for i := range f.input {
		s = xorshift32(s)
		re := float64(s%2048)/1024 - 1
		s = xorshift32(s)
		im := float64(s%2048)/1024 - 1
		f.input[i] = complex(re, im)
	}
	return f
}

// Name implements Job.
func (f *FFT) Name() string { return "FFT" }

// fftInPlace runs an iterative radix-2 decimation-in-time FFT over v.
func fftInPlace(v []complex128) {
	n := len(v)
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for lo := 0; lo < n; lo += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := v[lo+k]
				b := v[lo+k+half] * w
				v[lo+k] = a + b
				v[lo+k+half] = a - b
			}
		}
	}
}

// rowFFTs transforms rows [lo, hi) of dst in place.
func (f *FFT) rowFFTs(dst []complex128, lo, hi int) {
	for r := lo; r < hi; r++ {
		fftInPlace(dst[r*f.n : (r+1)*f.n])
	}
}

// colFFTs transforms columns [lo, hi) of dst in place, through col, an
// n-element scratch column.
func (f *FFT) colFFTs(dst, col []complex128, lo, hi int) {
	n := f.n
	for c := lo; c < hi; c++ {
		for r := range col {
			col[r] = dst[r*n+c]
		}
		fftInPlace(col)
		for r, v := range col {
			dst[r*n+c] = v
		}
	}
}

// scaleRows normalizes rows [lo, hi) by 1/n².
func (f *FFT) scaleRows(dst []complex128, lo, hi int) {
	inv := complex(1/float64(f.n*f.n), 0)
	for i := lo * f.n; i < hi*f.n; i++ {
		dst[i] *= inv
	}
}

// RunSequential implements Job.
func (f *FFT) RunSequential() {
	ref := f.ref
	copy(ref, f.input)
	f.rowFFTs(ref, 0, f.n)
	f.colFFTs(ref, make([]complex128, f.n), 0, f.n)
	f.scaleRows(ref, 0, f.n)
	f.refDone = true
}

// phaseCost models one phase over `lines` rows or columns.
func (f *FFT) phaseCost(lines int) int64 {
	return int64(lines) * int64(f.n) * int64(log2ceil(f.n)) * fftCyclesPerButterfly
}

// SequentialSteps implements Job.
func (f *FFT) SequentialSteps() []hardsim.Step {
	bytes := int64(f.n) * int64(f.n) * 16
	all := func(w bool) core.MemRegion { return region("data", 0, bytes, w) }
	return []hardsim.Step{
		{Cost: int64(f.n) * int64(f.n) * 4, Regions: []core.MemRegion{region("data", 0, bytes, true)}},
		{Cost: f.phaseCost(f.n), Regions: []core.MemRegion{all(false), all(true)}},
		{Cost: f.phaseCost(f.n), Regions: []core.MemRegion{all(false), all(true)}},
		{Cost: int64(f.n) * int64(f.n) * 2, Regions: []core.MemRegion{all(false), all(true)}},
	}
}

// colRegions appends the strided per-row regions a column block touches.
func (f *FFT) colRegions(regs []core.MemRegion, lo, hi int, write bool) []core.MemRegion {
	n := f.n
	for r := 0; r < n; r++ {
		regs = append(regs, region("data", int64(r*n+lo)*16, int64(hi-lo)*16, write))
	}
	return regs
}

// Build implements Job: load → row FFTs → column FFTs → scale, with
// barrier arcs between phases.
func (f *FFT) Build(kernels, unroll int) (*core.Program, error) {
	inst := grains(f.n, unroll)
	n := f.n
	par, input := f.par, f.input
	rowBytes := int64(n) * 16

	rowsOf := func(ctx core.Context) (int, int) { return chunk(n, inst, int(ctx)) }
	rowRegion := func(lo, hi int, write bool) core.MemRegion {
		return region("data", int64(lo)*rowBytes, int64(hi-lo)*rowBytes, write)
	}

	p := core.NewProgram("fft")
	p.AddBuffer("data", int64(n)*rowBytes)
	b := p.AddBlock()

	load := core.NewTemplate(1, "load", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		copy(par[lo*n:hi*n], input[lo*n:hi*n])
	})
	load.Instances = core.Context(inst)
	load.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return int64(hi-lo) * int64(n) * 4
	}
	load.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		return []core.MemRegion{rowRegion(lo, hi, true)}
	}

	rows := core.NewTemplate(2, "rowfft", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		f.rowFFTs(par, lo, hi)
	})
	rows.Instances = core.Context(inst)
	rows.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return f.phaseCost(hi - lo)
	}
	rows.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		return []core.MemRegion{rowRegion(lo, hi, false), rowRegion(lo, hi, true)}
	}

	// scratch[ctx] is context ctx's column, made by its first call and
	// reused by every later run of this program; no two contexts share one.
	scratch := make([][]complex128, inst)
	cols := core.NewTemplate(3, "colfft", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		if scratch[ctx] == nil {
			scratch[ctx] = make([]complex128, n)
		}
		f.colFFTs(par, scratch[ctx], lo, hi)
	})
	cols.Instances = core.Context(inst)
	cols.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return f.phaseCost(hi - lo)
	}
	cols.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		regs := make([]core.MemRegion, 0, 2*n)
		regs = f.colRegions(regs, lo, hi, false)
		return f.colRegions(regs, lo, hi, true)
	}

	scale := core.NewTemplate(4, "scale", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		f.scaleRows(par, lo, hi)
	})
	scale.Instances = core.Context(inst)
	scale.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return int64(hi-lo) * int64(n) * 2
	}
	scale.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		return []core.MemRegion{rowRegion(lo, hi, false), rowRegion(lo, hi, true)}
	}

	load.Then(2, core.OneToOne{})
	rows.Then(3, core.OneToAll{}) // column FFTs need every row: phase barrier
	cols.Then(4, core.OneToAll{}) // scaling needs every column: phase barrier
	b.Add(load)
	b.Add(rows)
	b.Add(cols)
	b.Add(scale)
	return p, nil
}

// SharedBuffers implements Job.
func (f *FFT) SharedBuffers() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	svb.Register("data", byteview.Complex128s(f.par))
	return svb
}

// ResetOutput implements Job.
func (f *FFT) ResetOutput() {
	for i := range f.par {
		f.par[i] = 0
	}
}

// Verify implements Job: identical per-element computation order gives a
// bitwise match.
func (f *FFT) Verify() error {
	if !f.refDone {
		f.RunSequential()
	}
	for i := range f.ref {
		if f.par[i] != f.ref[i] {
			return fmt.Errorf("FFT: element %d = %v, want %v", i, f.par[i], f.ref[i])
		}
	}
	return nil
}
