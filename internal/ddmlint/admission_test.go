package ddmlint

import (
	"math"
	"strings"
	"testing"

	"tflux/internal/core"
	"tflux/internal/workload"
)

// suiteProgram builds one suite benchmark the way the repo benchmark's
// serve workloads do (2 kernels).
func suiteProgram(tb testing.TB, name string, param, unroll int) *core.Program {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := spec.Make(param).Build(2, unroll)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkAdmit reproduces the repo benchmark's ddmlint.lint_us.* layer
// numbers without the benchmark module:
// go test -run '^$' -bench Admit ./internal/ddmlint
// The plain rows admit one program object again and again, as that probe
// does, so after the first iteration they read a program whose access
// table exists; the /fresh rows admit a newly built program every time,
// which is what a cold submission pays.
func BenchmarkAdmit(b *testing.B) {
	for _, c := range []struct {
		tag, name     string
		param, unroll int
	}{
		{"fft32u1", "FFT", 32, 1},
		{"fft64u1", "FFT", 64, 1},
		{"trapez512", "TRAPEZ", 19, 512},
	} {
		b.Run(c.tag, func(b *testing.B) {
			p := suiteProgram(b, c.name, c.param, c.unroll)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Admit(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.tag+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := suiteProgram(b, c.name, c.param, c.unroll)
				b.StartTimer()
				if err := Admit(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdmitAllocsDoNotGrow pins the allocation count of admitting one
// newly built FFT-32/1 (access table included): serve-cold's allocation
// metrics are gated at 2 %, and unlike a timing this number is the same
// on every host.
func TestAdmitAllocsDoNotGrow(t *testing.T) {
	const ceiling = 196 // 187 measured, + 5 %; 824 before the interval sweep
	const runs = 5
	fresh := make([]*core.Program, 0, runs+1) // AllocsPerRun warms up with one extra call
	for range runs + 1 {
		fresh = append(fresh, suiteProgram(t, "FFT", 32, 1))
	}
	got := testing.AllocsPerRun(runs, func() {
		p := fresh[0]
		fresh = fresh[1:]
		if err := Admit(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first Admit(FFT-32/1): %.0f allocs", got)
	if got > ceiling {
		t.Fatalf("first Admit(FFT-32/1) makes %.0f allocations, want <= %d", got, ceiling)
	}
}

// TestAdmitProvesSuite: admission proves every suite program race-free at
// every native size and grain, with no analysis skipped under its caps.
func TestAdmitProvesSuite(t *testing.T) {
	for _, spec := range workload.Suite() {
		sizes, ok := spec.Sizes(workload.Native)
		if !ok {
			t.Fatalf("%s has no native sizes", spec.Name)
		}
		for _, param := range sizes {
			job := spec.Make(param)
			for _, unroll := range []int{1, 8, 64} {
				p, err := job.Build(2, unroll)
				if err != nil {
					t.Fatalf("%s %s unroll %d: %v", spec.Name, spec.SizeLabel(param), unroll, err)
				}
				r, err := LintOpts(p, admitOpts)
				if err != nil {
					t.Fatalf("%s %s unroll %d: %v", spec.Name, spec.SizeLabel(param), unroll, err)
				}
				if !r.OK() || len(r.Notes) > 0 {
					var sb strings.Builder
					r.WriteText(&sb)
					t.Errorf("%s %s unroll %d is not proved at admission:\n%s",
						spec.Name, spec.SizeLabel(param), unroll, sb.String())
				}
			}
		}
	}
}

// TestBoundsOverflowIsRejected: a region whose Offset+Size wraps int64
// must not slip past the bounds check (the admission gate is the
// daemon's isolation boundary).
func TestBoundsOverflowIsRejected(t *testing.T) {
	p := core.NewProgram("wrap")
	p.AddBuffer("buf", 64)
	tpl := core.NewTemplate(1, "w", noop)
	tpl.Instances = 2
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "buf", Offset: math.MaxInt64 - 3, Size: 8, Write: true}}
	}
	p.AddBlock().Add(tpl)
	r := mustLint(t, p)
	f := hasKind(r, KindBufferBounds)
	if f == nil {
		t.Fatalf("no buffer-bounds finding: %v", kinds(r))
	}
	if f.Count != 2 || f.Buffer != "buf" {
		t.Fatalf("finding = %+v", f)
	}
	if err := Admit(p); err == nil || !strings.Contains(err.Error(), "buffer-bounds") {
		t.Fatalf("Admit = %v, want a buffer-bounds rejection", err)
	}
}
