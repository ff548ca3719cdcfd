package workload

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"tflux/internal/core"
	"tflux/internal/rts"
)

// --- TRAPEZ ---

// TestTrapezChunkingInvariance: partial sums over any chunking combine to
// the unchunked sum within floating-point reassociation tolerance — the
// property that makes min-over-unroll selection legitimate.
func TestTrapezChunkingInvariance(t *testing.T) {
	j := NewTrapez(14)
	whole := j.integrate(0, j.n)
	f := func(chunksRaw uint8) bool {
		k := int(chunksRaw)%50 + 1
		var sum float64
		for i := 0; i < k; i++ {
			lo, hi := chunk(j.n, k, i)
			sum += j.integrate(lo, hi)
		}
		return math.Abs(sum-whole) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrapezResetClearsState(t *testing.T) {
	j := NewTrapez(10)
	p, err := j.Build(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	for i := range j.partials {
		j.partials[i] = 42
	}
	j.result[0] = 42
	j.ResetOutput()
	for _, v := range j.partials {
		if v != 0 {
			t.Fatal("partials not cleared")
		}
	}
	if j.result[0] != 0 {
		t.Fatal("result not cleared")
	}
}

// --- MMULT ---

func TestMMultRowIndependence(t *testing.T) {
	// Computing rows in two disjoint calls equals one call over both.
	a := NewMMult(16)
	one := make([]float64, 16*16)
	two := make([]float64, 16*16)
	a.multiplyRows(one, 0, 16)
	a.multiplyRows(two, 0, 7)
	a.multiplyRows(two, 7, 16)
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("row-split changed element %d", i)
		}
	}
}

func TestMMultIdentity(t *testing.T) {
	m := NewMMult(8)
	// Overwrite B with the identity: C must equal A.
	for i := range m.b {
		m.b[i] = 0
	}
	for i := 0; i < 8; i++ {
		m.b[i*8+i] = 1
	}
	m.multiplyRows(m.cPar, 0, 8)
	for i := range m.a {
		if math.Abs(m.cPar[i]-m.a[i]) > 1e-12 {
			t.Fatalf("A×I ≠ A at %d", i)
		}
	}
}

func TestMMultRegionsCoverMatrices(t *testing.T) {
	m := NewMMult(64)
	regs := m.rowRegions(8, 16)
	if len(regs) != 3 {
		t.Fatalf("regions = %d", len(regs))
	}
	if regs[0].Buffer != "A" || regs[0].Offset != 8*64*8 || regs[0].Size != 8*64*8 {
		t.Fatalf("A region %+v", regs[0])
	}
	if regs[1].Buffer != "B" || regs[1].Offset != 0 || regs[1].Size != 64*64*8 {
		t.Fatalf("B region %+v", regs[1])
	}
	if !regs[1].Stream == (regs[1].Size > streamThreshold) {
		t.Fatalf("B streaming flag inconsistent: %+v", regs[1])
	}
	if !regs[2].Write {
		t.Fatalf("C region not a write: %+v", regs[2])
	}
}

// --- QSORT ---

func TestQSortDeterministicInput(t *testing.T) {
	a, b := NewQSort(256), NewQSort(256)
	a.fill(a.input)
	b.fill(b.input)
	for i := range a.input {
		if a.input[i] != b.input[i] {
			t.Fatal("input generation not deterministic")
		}
	}
}

func TestQSortLeafBoundariesMatchMergeTree(t *testing.T) {
	// The merge tree's bounds must tile the array for every unroll.
	for _, u := range []int{1, 3, 8, 64} {
		q := NewQSort(1000)
		if _, err := q.Build(4, u); err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		l := q.leaves
		covered := 0
		for i := 0; i < l; i++ {
			lo, hi := chunk(q.n, l, i)
			if lo != covered {
				t.Fatalf("u=%d leaf %d starts at %d, want %d", u, i, lo, covered)
			}
			covered = hi
		}
		if covered != q.n {
			t.Fatalf("u=%d: leaves cover %d of %d", u, covered, q.n)
		}
	}
}

// --- SUSAN ---

func TestSusanBordersPassThrough(t *testing.T) {
	s := NewSusan(16, 12)
	s.initRows(s.img, 0, 12)
	s.smoothRows(s.img, s.smooth, 0, 12)
	for x := 0; x < 16; x++ {
		if s.smooth[x] != s.img[x] {
			t.Fatalf("top border pixel %d smoothed", x)
		}
		if s.smooth[11*16+x] != s.img[11*16+x] {
			t.Fatalf("bottom border pixel %d smoothed", x)
		}
	}
}

func TestSusanSmoothingIsAveraging(t *testing.T) {
	// A flat image must stay flat (weights cancel).
	s := NewSusan(8, 8)
	for i := range s.img {
		s.img[i] = 77
	}
	s.smoothRows(s.img, s.smooth, 0, 8)
	for i, v := range s.smooth {
		if v != 77 {
			t.Fatalf("flat image changed at %d: %d", i, v)
		}
	}
}

func TestSusanLUTMonotoneDecay(t *testing.T) {
	s := NewSusan(4, 4)
	// Similarity weight must not increase with brightness difference.
	for d := 0; d < 255; d++ {
		if s.lut[255+d+1] > s.lut[255+d] {
			t.Fatalf("LUT not monotone at diff %d", d)
		}
		if s.lut[255-d] != s.lut[255+d] {
			t.Fatalf("LUT not symmetric at diff %d", d)
		}
	}
	if s.lut[255] == 0 {
		t.Fatal("identical brightness has zero weight")
	}
}

func TestSusanRowChunkingInvariance(t *testing.T) {
	s := NewSusan(32, 24)
	s.initRows(s.img, 0, 24)
	whole := make([]byte, 32*24)
	s.smoothRows(s.img, whole, 0, 24)
	parts := make([]byte, 32*24)
	for _, split := range []int{1, 5, 11, 23} {
		for i := range parts {
			parts[i] = 0
		}
		s.smoothRows(s.img, parts, 0, split)
		s.smoothRows(s.img, parts, split, 24)
		for i := range whole {
			if parts[i] != whole[i] {
				t.Fatalf("split at %d changed pixel %d", split, i)
			}
		}
	}
}

// --- FFT ---

func TestFFTLinearity(t *testing.T) {
	// FFT(a+b) == FFT(a)+FFT(b) within tolerance.
	const n = 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	s := uint32(77)
	for i := range a {
		s = xorshift32(s)
		a[i] = complex(float64(s%100)/50-1, 0)
		s = xorshift32(s)
		b[i] = complex(0, float64(s%100)/50-1)
	}
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	fftInPlace(a)
	fftInPlace(b)
	fftInPlace(sum)
	for i := range sum {
		d := sum[i] - (a[i] + b[i])
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTParsevalEnergy(t *testing.T) {
	const n = 64
	v := make([]complex128, n)
	s := uint32(5)
	var timeEnergy float64
	for i := range v {
		s = xorshift32(s)
		v[i] = complex(float64(s%1000)/500-1, 0)
		timeEnergy += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	fftInPlace(v)
	var freqEnergy float64
	for _, c := range v {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-9*timeEnergy {
		t.Fatalf("Parseval violated: time %v vs freq/N %v", timeEnergy, freqEnergy/float64(n))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two size")
		}
	}()
	NewFFT(12)
}

func TestFFTColumnChunkingInvariance(t *testing.T) {
	f1 := NewFFT(16)
	f2 := NewFFT(16)
	copy(f1.par, f1.input)
	copy(f2.par, f2.input)
	f1.colFFTs(f1.par, make([]complex128, 16), 0, 16)
	// One scratch column serves both chunks: what the first left in it
	// must not reach the second.
	col := make([]complex128, 16)
	f2.colFFTs(f2.par, col, 0, 5)
	f2.colFFTs(f2.par, col, 5, 16)
	for i := range f1.par {
		if f1.par[i] != f2.par[i] {
			t.Fatalf("column split changed element %d", i)
		}
	}
}

// mallocs returns how many objects fn allocated, on every goroutine.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFFTWarmRunAllocatesNoColumns runs one built FFT-64/1 program twice:
// its colfft body allocates nothing the second time, because each context
// keeps the column its first call made, so the second run allocates the
// 64 columns fewer than the first. Every run still matches RunSequential
// bit for bit.
func TestFFTWarmRunAllocatesNoColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	const n, kernels = 64, 2
	f := NewFFT(n)
	f.RunSequential()
	build := func() *core.Program {
		p, err := f.Build(kernels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(p *core.Program) {
		f.ResetOutput()
		if _, err := rts.Run(p, rts.Options{Kernels: kernels}); err != nil {
			t.Fatal(err)
		}
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
	}

	p := build()
	var cols *core.Template
	for _, tm := range p.Blocks[0].Templates {
		if tm.Name == "colfft" {
			cols = tm
		}
	}
	body := func() {
		for c := core.Context(0); c < cols.Instances; c++ {
			cols.Body(c)
		}
	}
	if got := mallocs(body); got != uint64(cols.Instances) {
		t.Fatalf("first pass of the colfft body allocated %d times, want one column per context (%d)", got, cols.Instances)
	}
	if got := mallocs(body); got != 0 {
		t.Fatalf("second pass of the colfft body allocated %d times, want 0", got)
	}

	// The program-wide count, over the run scratch and SM arrays an
	// earlier run left: a newly built program's first run against its
	// second, the largest drop of five pairs (under the race detector
	// sync.Pool drops a share of what it is given, so a run may regrow
	// some scratch at random).
	run(build())
	drop := int64(math.MinInt64)
	for i := 0; i < 5; i++ {
		q := build()
		first := mallocs(func() { run(q) })
		second := mallocs(func() { run(q) })
		t.Logf("first run %d allocs, second run %d", first, second)
		drop = max(drop, int64(first)-int64(second))
	}
	if drop < int64(cols.Instances) {
		t.Fatalf("a second run allocates at most %d times fewer than the first: want at least the %d columns fewer", drop, cols.Instances)
	}
}
