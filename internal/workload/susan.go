package workload

import (
	"fmt"

	"tflux/internal/byteview"
	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// SUSAN: the MiBench image smoothing kernel (brightness-threshold weighted
// averaging — the smoothing mode of SUSAN image recognition). Per §6.1.2
// the benchmark has three independently parallelized phases: an
// initialization phase that produces the input image, the processing
// (smoothing) phase, and a phase that writes the results to a large output
// array. Each phase parallelizes over row blocks with barriers between
// phases; all three exploit their parallelism well, giving SUSAN the best
// TFluxHard speedup in the paper (24.8 on 27 nodes).
//
// The size parameter packs the image dimensions (w<<16 | h); Table 1 uses
// 256x288, 512x576 and 1024x576.

const (
	susanInitCyclesPerPixel   = 6
	susanSmoothCyclesPerPixel = 45 // 3x3 mask, LUT weight per neighbour
	susanOutCyclesPerPixel    = 4
	// susanThreshold is the brightness-difference threshold of the
	// similarity LUT (MiBench's default smoothing threshold region).
	susanThreshold = 27
)

// Susan is the SUSAN Job.
type Susan struct {
	w, h    int
	lut     [512]uint16 // brightness similarity weights, index diff+255
	img     []byte      // parallel input image (phase 1 output)
	smooth  []byte      // phase 2 output
	final   []byte      // phase 3 output
	ref     []byte      // sequential final output
	seqImg  []byte      // sequential scratch (preallocated so the baseline
	seqSm   []byte      // measures compute, not allocation)
	refDone bool
}

// SusanSpec returns the Table 1 entry for SUSAN.
func SusanSpec() Spec {
	pack := func(w, h int) int { return w<<16 | h }
	return Spec{
		Name:        "SUSAN",
		Source:      "MiBench",
		Description: "Image recognition / smoothing",
		Sizes: func(Platform) ([3]int, bool) {
			return [3]int{pack(256, 288), pack(512, 576), pack(1024, 576)}, true
		},
		SizeLabel: func(p int) string { return fmt.Sprintf("%dx%d", p>>16, p&0xFFFF) },
		Make:      func(p int) Job { return NewSusan(p>>16, p&0xFFFF) },
	}
}

// NewSusan builds a SUSAN job over a w×h 8-bit image.
func NewSusan(w, h int) *Susan {
	s := &Susan{
		w: w, h: h,
		img:    make([]byte, w*h),
		smooth: make([]byte, w*h),
		final:  make([]byte, w*h),
		ref:    make([]byte, w*h),
		seqImg: make([]byte, w*h),
		seqSm:  make([]byte, w*h),
	}
	// MiBench-style brightness similarity LUT: 100·exp(-(d/t)²), here in
	// fixed point without math.Exp so results are bit-exact integers.
	for d := -255; d <= 255; d++ {
		x := (d * d * 64) / (susanThreshold * susanThreshold)
		w := 1024 >> uint(min(x/16, 10)) // geometric decay, 1024..1
		s.lut[d+255] = uint16(w)
	}
	return s
}

// Name implements Job.
func (s *Susan) Name() string { return "SUSAN" }

// initRows synthesizes the input image rows [lo, hi): a deterministic
// gradient plus pseudo-random texture.
func (s *Susan) initRows(dst []byte, lo, hi int) {
	for y := lo; y < hi; y++ {
		seed := xorshift32(uint32(y)*2654435761 + 1)
		row := dst[y*s.w : (y+1)*s.w]
		for x := range row {
			seed = xorshift32(seed)
			row[x] = byte((x*255)/s.w ^ int(seed&63))
		}
	}
}

// smoothRows applies the brightness-threshold 3x3 smoothing to rows
// [lo, hi): each output pixel is the similarity-weighted average of its
// neighbourhood (border pixels pass through).
func (s *Susan) smoothRows(src, dst []byte, lo, hi int) {
	w, h := s.w, s.h
	for y := lo; y < hi; y++ {
		for x := 0; x < w; x++ {
			c := src[y*w+x]
			if y == 0 || y == h-1 || x == 0 || x == w-1 {
				dst[y*w+x] = c
				continue
			}
			var num, den uint32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dy == 0 && dx == 0 {
						continue
					}
					p := src[(y+dy)*w+x+dx]
					wt := uint32(s.lut[int(p)-int(c)+255])
					num += wt * uint32(p)
					den += wt
				}
			}
			if den == 0 {
				dst[y*w+x] = c
			} else {
				dst[y*w+x] = byte(num / den)
			}
		}
	}
}

// outputRows writes the smoothed rows [lo, hi) to the final output array.
func (s *Susan) outputRows(src, dst []byte, lo, hi int) {
	copy(dst[lo*s.w:hi*s.w], src[lo*s.w:hi*s.w])
}

// RunSequential implements Job.
func (s *Susan) RunSequential() {
	s.initRows(s.seqImg, 0, s.h)
	s.smoothRows(s.seqImg, s.seqSm, 0, s.h)
	s.outputRows(s.seqSm, s.ref, 0, s.h)
	s.refDone = true
}

// SequentialSteps implements Job.
func (s *Susan) SequentialSteps() []hardsim.Step {
	px := int64(s.w) * int64(s.h)
	bytes := px
	return []hardsim.Step{
		{Cost: px * susanInitCyclesPerPixel, Regions: []core.MemRegion{region("img", 0, bytes, true)}},
		{Cost: px * susanSmoothCyclesPerPixel, Regions: []core.MemRegion{
			region("img", 0, bytes, false), region("smooth", 0, bytes, true)}},
		{Cost: px * susanOutCyclesPerPixel, Regions: []core.MemRegion{
			region("smooth", 0, bytes, false), region("final", 0, bytes, true)}},
	}
}

// Build implements Job: three row-block loop DThreads with phase barriers
// (init→smooth is all-to-all because smoothing needs halo rows; smooth→out
// is one-to-one).
func (s *Susan) Build(kernels, unroll int) (*core.Program, error) {
	inst := grains(s.h, unroll)
	w, h := s.w, s.h
	img, smooth, final := s.img, s.smooth, s.final

	rowsOf := func(ctx core.Context) (int, int) { return chunk(h, inst, int(ctx)) }
	rowRegion := func(buf string, lo, hi int, write bool) core.MemRegion {
		return region(buf, int64(lo)*int64(w), int64(hi-lo)*int64(w), write)
	}

	p := core.NewProgram("susan")
	bytes := int64(w) * int64(h)
	p.AddBuffer("img", bytes)
	p.AddBuffer("smooth", bytes)
	p.AddBuffer("final", bytes)
	b := p.AddBlock()

	init := core.NewTemplate(1, "init", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		s.initRows(img, lo, hi)
	})
	init.Instances = core.Context(inst)
	init.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return int64(hi-lo) * int64(w) * susanInitCyclesPerPixel
	}
	init.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		return []core.MemRegion{rowRegion("img", lo, hi, true)}
	}

	proc := core.NewTemplate(2, "smooth", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		s.smoothRows(img, smooth, lo, hi)
	})
	proc.Instances = core.Context(inst)
	proc.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return int64(hi-lo) * int64(w) * susanSmoothCyclesPerPixel
	}
	proc.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		rlo, rhi := lo-1, hi+1 // halo rows
		if rlo < 0 {
			rlo = 0
		}
		if rhi > h {
			rhi = h
		}
		return []core.MemRegion{
			rowRegion("img", rlo, rhi, false),
			rowRegion("smooth", lo, hi, true),
		}
	}

	out := core.NewTemplate(3, "output", func(ctx core.Context) {
		lo, hi := rowsOf(ctx)
		s.outputRows(smooth, final, lo, hi)
	})
	out.Instances = core.Context(inst)
	out.Cost = func(ctx core.Context) int64 {
		lo, hi := rowsOf(ctx)
		return int64(hi-lo) * int64(w) * susanOutCyclesPerPixel
	}
	out.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := rowsOf(ctx)
		return []core.MemRegion{
			rowRegion("smooth", lo, hi, false),
			rowRegion("final", lo, hi, true),
		}
	}

	init.Then(2, core.OneToAll{})
	proc.Then(3, core.OneToOne{})
	b.Add(init)
	b.Add(proc)
	b.Add(out)
	return p, nil
}

// SharedBuffers implements Job.
func (s *Susan) SharedBuffers() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	svb.Register("img", byteview.Bytes(s.img))
	svb.Register("smooth", byteview.Bytes(s.smooth))
	svb.Register("final", byteview.Bytes(s.final))
	return svb
}

// ResetOutput implements Job.
func (s *Susan) ResetOutput() {
	for i := range s.final {
		s.img[i], s.smooth[i], s.final[i] = 0, 0, 0
	}
}

// Verify implements Job: integer pixel pipeline, bitwise comparison.
func (s *Susan) Verify() error {
	if !s.refDone {
		s.RunSequential()
	}
	for i := range s.ref {
		if s.final[i] != s.ref[i] {
			return fmt.Errorf("SUSAN: pixel (%d,%d) = %d, want %d", i%s.w, i/s.w, s.final[i], s.ref[i])
		}
	}
	return nil
}
