package exp

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"tflux/internal/stats"
	"tflux/internal/workload"
)

func quick() Options { return Options{Quick: true} }

func TestFig5Quick(t *testing.T) {
	rows, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 5 benchmarks × 1 kernel count × Small
		t.Fatalf("fig5 quick rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Unit != "cycles" || r.Platform != "TFluxHard" {
			t.Fatalf("row %+v", r)
		}
		if math.IsNaN(r.Speedup) || r.Speedup <= 0 {
			t.Fatalf("bad speedup in %+v", r)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	rows, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("fig6 quick rows = %d, want 5", len(rows))
	}
	// Auto mode keeps the wall clock only when the 2 kernels and the TSU
	// emulator each have a CPU; otherwise the rows are the vtime machine's
	// cycles.
	unit, mode := "s", "wallclock"
	if runtime.GOMAXPROCS(0) < 3 {
		unit, mode = "cycles", "virtual"
	}
	for _, r := range rows {
		if r.Unit != unit || r.Mode != mode || r.Platform != "TFluxSoft" {
			t.Fatalf("row %+v, want unit %s in mode %s", r, unit, mode)
		}
	}
	for _, m := range []Mode{ModeWallClock, ModeVirtual} {
		o := quick()
		o.Mode = m
		r, err := Fig6(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[Mode]string{ModeWallClock: "s", ModeVirtual: "cycles"}[m]; r[0].Unit != want {
			t.Fatalf("mode %d: row %+v, want unit %s", m, r[0], want)
		}
	}
}

func TestFig7Quick(t *testing.T) {
	rows, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // FFT is not in Figure 7
		t.Fatalf("fig7 quick rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Benchmark == "FFT" {
			t.Fatal("FFT must not appear in fig7")
		}
		if r.Platform != "TFluxCell" {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestTSULatencyQuick(t *testing.T) {
	o := quick()
	o.MaxKernels = 4
	rows, err := TSULatency(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 benchmarks × {1,128}
		t.Fatalf("tsulat rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: <1% impact across the latency range. Allow a
		// slightly looser bound in quick mode (small problem).
		if r.Speedup < 0.95 || r.Speedup > 1.05 {
			t.Fatalf("TSU latency sensitivity out of range: %+v", r)
		}
	}
}

func TestUnrollSweepQuick(t *testing.T) {
	o := quick()
	o.MaxKernels = 4
	rows, err := UnrollSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 platforms × {1,64}
		t.Fatalf("unroll rows = %d, want 6", len(rows))
	}
	platforms := map[string]bool{}
	for _, r := range rows {
		platforms[r.Platform] = true
	}
	for _, p := range []string{"TFluxHard", "TFluxSoft", "TFluxCell"} {
		if !platforms[p] {
			t.Fatalf("unroll sweep missing platform %s", p)
		}
	}
}

func TestTable1(t *testing.T) {
	s := Table1()
	for _, want := range []string{"TRAPEZ", "MMULT", "QSORT", "SUSAN", "FFT", "MiBench", "NAS", "1024x1024", "2^23", "12K"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestBudget(t *testing.T) {
	s := Budget()
	if !strings.Contains(s, "430K") || !strings.Contains(s, "transistors") {
		t.Fatalf("Budget output: %s", s)
	}
}

func TestFormatAndSummary(t *testing.T) {
	rows := []Row{
		{Experiment: "x", Benchmark: "B", Platform: "P", Size: "s", Class: workload.Large, Kernels: 4, Unroll: 2, Seq: 10, Par: 2, Unit: "s", Speedup: 5},
		{Experiment: "x", Benchmark: "C", Platform: "P", Size: "s", Class: workload.Large, Kernels: 4, Unroll: 2, Seq: 10, Par: 5, Unit: "s", Speedup: 2},
	}
	f := Format(rows)
	if !strings.Contains(f, "speedup") || !strings.Contains(f, "5.00") {
		t.Fatalf("Format output:\n%s", f)
	}
	sum := Summary(rows)
	if !strings.Contains(sum, "4 kernels") || !strings.Contains(sum, "3.5x") {
		t.Fatalf("Summary output: %s", sum)
	}
	if Summary(nil) != "no rows" {
		t.Fatal("empty summary")
	}
	// The headline averages benchmarks at the largest kernel count, so it
	// belongs to the speedups figures only: a study's rows are settings of
	// one run (groups' "3 benchmarks" were TSU group counts 1, 2, 4).
	figures := map[string]bool{"fig5": true, "fig6": true, "fig7": true, "fig5x86": true}
	for _, e := range Experiments {
		if e.Figure != figures[e.Name] {
			t.Errorf("experiment %s: Figure = %t, want %t", e.Name, e.Figure, figures[e.Name])
		}
		if e.Figure && e.Rows == nil {
			t.Errorf("experiment %s is a Figure without Rows", e.Name)
		}
	}
}

// TestRowsAreSpeedups pins what a Row is: Seq and Par are times in Unit on
// the platform Mode names, and Speedup is their ratio. (The deleted serve,
// dist and stream experiments carried quantiles, bytes and message counts
// in these fields.)
func TestRowsAreSpeedups(t *testing.T) {
	units := map[string]bool{"cycles": true, "s": true}
	modes := map[string]bool{"sim": true, "wallclock": true, "virtual": true}
	for _, e := range Experiments {
		if e.Rows == nil {
			continue
		}
		rows, err := e.Rows(quick())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(rows) == 0 {
			t.Errorf("%s: no rows", e.Name)
		}
		for _, r := range rows {
			if r.Experiment != e.Name || !units[r.Unit] || !modes[r.Mode] {
				t.Errorf("%s: row %+v", e.Name, r)
			}
			if r.Speedup != stats.Speedup(r.Seq, r.Par) {
				t.Errorf("%s: speedup %v is not seq/par = %v: %+v", e.Name, r.Speedup, stats.Speedup(r.Seq, r.Par), r)
			}
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	o := quick()
	o.Progress = func(s string) { lines = append(lines, s) }
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 {
		t.Fatalf("progress lines = %d, want 5", len(lines))
	}
}

func TestKernelCountsCap(t *testing.T) {
	o := Options{MaxKernels: 5}
	got := o.kernelCounts([]int{2, 4, 8, 16, 27})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("capped kernel counts = %v", got)
	}
	o = Options{MaxKernels: 1}
	got = o.kernelCounts([]int{2, 4})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("floor kernel counts = %v", got)
	}
}

func TestFig5X86Quick(t *testing.T) {
	rows, err := Fig5X86(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Platform != "TFluxHard/x86" || r.Unit != "cycles" {
			t.Fatalf("row %+v", r)
		}
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup %+v", r)
		}
	}
}

// TestFig5X86SimilarConclusions checks the paper's §6.1.2 statement: the
// x86 machine's speedups resemble the Sparc machine's at matched kernel
// counts (within a generous factor — "similar", not identical).
func TestFig5X86SimilarConclusions(t *testing.T) {
	o := Options{Quick: true, MaxKernels: 8}
	sparc, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	x86, err := Fig5X86(o)
	if err != nil {
		t.Fatal(err)
	}
	bySparc := map[string]float64{}
	for _, r := range sparc {
		bySparc[r.Benchmark] = r.Speedup
	}
	for _, r := range x86 {
		s, ok := bySparc[r.Benchmark]
		if !ok {
			continue
		}
		ratio := r.Speedup / s
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("%s: x86 speedup %.2f vs sparc %.2f — not similar", r.Benchmark, r.Speedup, s)
		}
	}
}

func TestGroupsRelievesTSUBottleneck(t *testing.T) {
	o := Options{MaxKernels: 16}
	rows, err := Groups(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Unroll != 1 || rows[0].Speedup != 1.0 {
		t.Fatalf("baseline row %+v", rows[0])
	}
	// More groups must not be slower, and 4 groups should visibly beat 1
	// on this deliberately TSU-bound configuration.
	if rows[2].Speedup < 1.05 {
		t.Fatalf("4 TSU groups speedup = %.3f over 1 group, want > 1.05", rows[2].Speedup)
	}
	if rows[1].Speedup < 1.0-1e-9 {
		t.Fatalf("2 groups slower than 1: %+v", rows[1])
	}
}

// TestFig5OrderingMatchesPaper pins the evaluation's qualitative result:
// at high kernel counts QSORT trails everything, FFT trails the
// embarrassingly parallel three, and TRAPEZ/SUSAN lead (Figure 5). Runs
// the full Small-size column, so it is skipped in -short mode.
func TestFig5OrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig5 column")
	}
	o := Options{MaxKernels: 27}
	rows, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	at27 := map[string]float64{}
	for _, r := range rows {
		if r.Kernels == 27 && r.Class == workload.Large {
			at27[r.Benchmark] = r.Speedup
		}
	}
	if len(at27) != 5 {
		t.Fatalf("rows at 27 kernels: %v", at27)
	}
	if !(at27["QSORT"] < at27["FFT"] && at27["FFT"] < at27["MMULT"]) {
		t.Fatalf("ordering broken: %v", at27)
	}
	if at27["TRAPEZ"] < 20 || at27["SUSAN"] < 20 {
		t.Fatalf("embarrassingly parallel benchmarks below 20x: %v", at27)
	}
	if at27["QSORT"] > 10 {
		t.Fatalf("QSORT implausibly fast: %v", at27)
	}
}
