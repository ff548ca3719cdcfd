// Package exp holds the paper's evaluation (§5–§6) as a table of runnable
// experiments — Experiments, in print order; tfluxbench derives its -exp
// selector from it — and the measurement protocol they share.
//
// §5 applies one procedure to every platform: run each configuration
// several times, keep the best time, take the best over the unroll
// candidates, and report speedup against the pure sequential program. Here
// that procedure exists once, with the platform as a parameter: a machine
// descriptor says how one platform measures its sequential baseline and one
// verified parallel configuration (hard, soft and cell construct the
// three), speedups sweeps the suite over sizes and kernel counts on one
// machine (Figures 5–7 and the x86 companion), and study varies one setting
// at a fixed size (tsulat, groups, unroll).
//
// Every parallel run is verified against the sequential reference before
// its time is reported; a verification failure aborts the experiment.
package exp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/sim"
	"tflux/internal/stats"
	"tflux/internal/vtime"
	"tflux/internal/workload"
)

// Experiment is one entry of the experiment table: exactly one of Rows
// (measured) and Text (descriptive) is set.
type Experiment struct {
	Name  string // the tfluxbench -exp selector
	Title string // section header
	Rows  func(Options) ([]Row, error)
	Text  func() string
	// Figure marks a speedups figure: its rows are suite benchmarks against
	// their sequential programs, so Summary's headline is true of them. A
	// study's rows are settings of one run, which it would average as if
	// they were benchmarks.
	Figure bool
}

// Experiments is every experiment of the harness, in the order
// tfluxbench -exp all prints them.
var Experiments = []Experiment{
	{Name: "table1", Title: "table1", Text: Table1},
	{Name: "fig5", Title: "fig5 (TFluxHard, simulated cycles)", Rows: Fig5, Figure: true},
	{Name: "fig6", Title: "fig6 (TFluxSoft)", Rows: Fig6, Figure: true},
	{Name: "fig7", Title: "fig7 (TFluxCell)", Rows: Fig7, Figure: true},
	{Name: "fig5x86", Title: "fig5x86 (9-core x86 companion, §6.1.2)", Rows: Fig5X86, Figure: true},
	{Name: "groups", Title: "groups (multiple TSU Groups, §4.1 extension)", Rows: Groups},
	{Name: "tsulat", Title: "tsulat (TSU latency 1..128 cycles)", Rows: TSULatency},
	{Name: "unroll", Title: "unroll (MMULT across unroll factors)", Rows: UnrollSweep},
	{Name: "budget", Title: "budget", Text: Budget},
}

// Row is one data point of an experiment: one (benchmark, platform,
// kernels, size) cell of a paper figure.
type Row struct {
	Experiment string             `json:"experiment"`
	Benchmark  string             `json:"benchmark"`
	Platform   string             `json:"platform"`
	Size       string             `json:"size"`
	Class      workload.SizeClass `json:"-"`
	Kernels    int                `json:"kernels"`
	Unroll     int                `json:"unroll,omitempty"` // the unroll factor that won the min-over-unroll selection
	Seq        float64            `json:"seq"`              // sequential baseline (Unit)
	Par        float64            `json:"par"`              // parallel execution (Unit)
	Unit       string             `json:"unit"`             // "cycles" (simulated) or "s" (native wall clock)
	Mode       string             `json:"mode"`             // "sim", "wallclock" or "virtual"
	Speedup    float64            `json:"speedup"`          // stats.Speedup(Seq, Par)
}

// Options tunes experiment scope.
type Options struct {
	// Quick restricts each experiment to its smallest configuration
	// (Small sizes, fewest kernels, one unroll candidate, one rep) so the
	// whole harness runs in seconds; used by tests.
	Quick bool
	// Reps is the number of native repetitions per measurement (the paper
	// runs native configurations multiple times; min is taken). Zero
	// selects 3, or 1 under Quick.
	Reps int
	// MaxKernels caps kernel counts (useful on small hosts). Zero means
	// no cap.
	MaxKernels int
	// Progress, when non-nil, receives one line per completed
	// configuration.
	Progress func(string)
	// Mode selects how the software platforms (fig6, fig7, unroll) are
	// measured: on the wall clock, as the simulated machines of packages
	// vtime and cellsim, or automatically (see Options.virtual).
	Mode Mode
	// Metrics, when non-nil, receives the runtime counters and histograms
	// of every measured configuration (live instruments accumulate across
	// configurations; end-of-run totals reflect the last one).
	Metrics *obs.Registry
}

// Mode selects the software-platform timing method.
type Mode int

// Timing modes.
const (
	ModeAuto Mode = iota
	ModeWallClock
	ModeVirtual
)

// virtual reports whether the software platforms of an experiment whose
// largest kernel count is kernels run as simulated machines: always under
// ModeVirtual, never under ModeWallClock, and under ModeAuto unless every
// kernel and the TSU emulator can have a CPU of their own.
func (o Options) virtual(kernels int) bool {
	switch o.Mode {
	case ModeWallClock:
		return false
	case ModeVirtual:
		return true
	}
	return runtime.GOMAXPROCS(0) < kernels+1
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	if o.Quick {
		return 1
	}
	return 3
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

func (o Options) classes() []workload.SizeClass {
	if o.Quick {
		return []workload.SizeClass{workload.Small}
	}
	return []workload.SizeClass{workload.Small, workload.Medium, workload.Large}
}

func (o Options) kernelCounts(all []int) []int {
	if o.Quick {
		all = all[:1]
	}
	if o.MaxKernels <= 0 {
		return all
	}
	var out []int
	for _, k := range all {
		if k <= o.MaxKernels {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{o.MaxKernels}
	}
	return out
}

// unrollCandidates are the unroll factors the min-over-unroll selection
// (§5) tries per platform, and the one Quick keeps: TFluxHard peaks at
// small factors, TFluxSoft needs ≥16, TFluxCell needs ~64 (§6.2.2, §6.3).
var unrollCandidates = map[workload.Platform]struct {
	all   []int
	quick int
}{
	workload.Simulated: {[]int{2, 4, 8}, 4},
	workload.Native:    {[]int{16, 32, 64}, 32},
	workload.Cell:      {[]int{32, 64}, 64},
}

func (o Options) unrolls(pf workload.Platform) []int {
	c := unrollCandidates[pf]
	if o.Quick {
		return []int{c.quick}
	}
	return c.all
}

// capKernels applies the MaxKernels cap to a study's fixed kernel count.
func (o Options) capKernels(kernels int) int {
	if o.MaxKernels > 0 && o.MaxKernels < kernels {
		return o.MaxKernels
	}
	return kernels
}

// machine is one platform as the §5 protocol sees it: which Table 1 column
// sizes its problems and picks its unroll candidates, how its rows are
// labelled, and how the two numbers of a speedup are measured on it.
type machine struct {
	label string            // Row.Platform
	pf    workload.Platform // Table 1 column and unroll candidates
	unit  string            // Row.Unit
	mode  string            // Row.Mode
	// baseline measures the original sequential program.
	baseline func(job workload.Job) (float64, error)
	// run builds job at (kernels, unroll), executes it, verifies its
	// output against the sequential reference and returns its time.
	run func(job workload.Job, kernels, unroll int) (float64, error)
}

// simulated is a platform whose two numbers are simulated cycles: the
// baseline is one cold run of the original program on base, a parallel
// run is exec's cycle count for the program on kernels cores.
func simulated(label string, pf workload.Platform, mode string, base hardsim.Config, exec func(p *core.Program, kernels int) (sim.Time, error)) machine {
	return machine{
		label: label, pf: pf, unit: "cycles", mode: mode,
		baseline: func(job workload.Job) (float64, error) {
			prog, err := job.Build(1, 1)
			if err != nil {
				return 0, err
			}
			res, err := hardsim.Sequential(prog.Buffers, job.SequentialSteps(), base)
			if err != nil {
				return 0, err
			}
			return float64(res.Cycles), nil
		},
		run: func(job workload.Job, kernels, unroll int) (float64, error) {
			job.ResetOutput()
			p, err := job.Build(kernels, unroll)
			if err != nil {
				return 0, err
			}
			cycles, err := exec(p, kernels)
			if err != nil {
				return 0, err
			}
			return float64(cycles), job.Verify()
		},
	}
}

// hard is TFluxHard under cfg (Cores is set per run).
func hard(label string, cfg hardsim.Config) machine {
	return simulated(label, workload.Simulated, "sim", cfg, func(p *core.Program, kernels int) (sim.Time, error) {
		run := cfg
		run.Cores = kernels
		res, err := hardsim.Run(p, run)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	})
}

// timed is a software platform on the wall clock: both numbers are the
// best of o.reps() runs in seconds, the baseline the native sequential
// algorithm, a parallel run exec (output reset included, as a caller would
// pay it).
func timed(o Options, label string, pf workload.Platform, exec func(p *core.Program, job workload.Job, kernels int) error) machine {
	return machine{
		label: label, pf: pf, unit: "s", mode: "wallclock",
		baseline: func(job workload.Job) (float64, error) {
			return stats.Min(stats.Measure(o.reps(), job.RunSequential)).Seconds(), nil
		},
		run: func(job workload.Job, kernels, unroll int) (float64, error) {
			p, err := job.Build(kernels, unroll)
			if err != nil {
				return 0, err
			}
			best := time.Duration(math.MaxInt64)
			for r := 0; r < o.reps(); r++ {
				start := time.Now()
				job.ResetOutput()
				if err := exec(p, job, kernels); err != nil {
					return 0, err
				}
				best = min(best, time.Since(start))
			}
			return best.Seconds(), job.Verify()
		},
	}
}

// soft is TFluxSoft: the native runtime at its default options, or its
// vtime machine when o.virtual(kernels) for the experiment's largest
// kernel count.
func soft(o Options, kernels int) machine {
	if o.virtual(kernels) {
		return simulated("TFluxSoft", workload.Native, "virtual", vtime.Machine(vtime.Config{}), func(p *core.Program, kernels int) (sim.Time, error) {
			res, err := vtime.Run(p, vtime.Config{Kernels: kernels})
			if err != nil {
				return 0, err
			}
			return sim.Time(res.Makespan), nil
		})
	}
	return timed(o, "TFluxSoft", workload.Native, func(p *core.Program, _ workload.Job, kernels int) error {
		_, err := rts.Run(p, rts.Options{Kernels: kernels, Metrics: o.Metrics})
		return err
	})
}

// cell is TFluxCell: the SPE substrate over the job's shared buffers, or
// its virtual machine (cellsim.RunVirtual) when o.virtual(kernels).
func cell(o Options, kernels int) machine {
	if o.virtual(kernels) {
		return simulated("TFluxCell", workload.Cell, "virtual", cellsim.Machine(0), cellsim.RunVirtual)
	}
	return timed(o, "TFluxCell", workload.Cell, func(p *core.Program, job workload.Job, kernels int) error {
		_, err := cellsim.Run(p, job.SharedBuffers(), cellsim.Config{SPEs: kernels, Metrics: o.Metrics})
		return err
	})
}

// emit completes one measured cell — r carries what was measured, m how to
// label it — appends it and reports it as progress.
func (o Options) emit(rows []Row, m machine, r Row) []Row {
	r.Platform, r.Unit, r.Mode = m.label, m.unit, m.mode
	r.Speedup = stats.Speedup(r.Seq, r.Par)
	o.progress("%s %s %s %s k=%d u=%d: speedup %.2f", r.Experiment, r.Benchmark, r.Platform, r.Size, r.Kernels, r.Unroll, r.Speedup)
	return append(rows, r)
}

// speedups is the figure protocol: every suite benchmark the paper runs on
// m, at every size class and each of kernelCounts, the parallel time being
// the best over m's unroll candidates (Row.Unroll names the winner).
func speedups(o Options, name string, m machine, kernelCounts []int) ([]Row, error) {
	var rows []Row
	for _, spec := range workload.Suite() {
		sizes, ok := spec.Sizes(m.pf)
		if !ok {
			continue // FFT: not in Figure 7
		}
		for _, cls := range o.classes() {
			param := sizes[cls]
			job := spec.Make(param)
			seq, err := m.baseline(job)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, spec.Name, err)
			}
			for _, kernels := range kernelCounts {
				best, bestU := math.Inf(1), 0
				for _, u := range o.unrolls(m.pf) {
					par, err := m.run(job, kernels, u)
					if err != nil {
						return nil, fmt.Errorf("%s %s k=%d u=%d: %w", name, spec.Name, kernels, u, err)
					}
					if par < best {
						best, bestU = par, u
					}
				}
				rows = o.emit(rows, m, Row{Experiment: name, Benchmark: spec.Name, Size: spec.SizeLabel(param),
					Class: cls, Kernels: kernels, Unroll: bestU, Seq: seq, Par: best})
			}
		}
	}
	return rows, nil
}

// point is one configuration of a one-parameter study.
type point struct {
	value  int // the swept value, reported in the Unroll column
	unroll int // DThread granularity the point is built at
	m      machine
}

// study is the one-parameter protocol: one Job of bench at one size class
// and kernel count, measured at each point. With relative set, Seq is the
// first point's own time, so Speedup reads "how much this setting changes
// things" and 1.0 means not at all; otherwise it is the sequential
// baseline of the first point's machine (which every point then shares).
func study(o Options, name, bench string, cls workload.SizeClass, kernels int, relative bool, points []point) ([]Row, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	sizes, _ := spec.Sizes(points[0].m.pf)
	param := sizes[cls]
	job := spec.Make(param)
	var seq float64
	if !relative {
		if seq, err = points[0].m.baseline(job); err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, bench, err)
		}
	}
	var rows []Row
	for i, pt := range points {
		par, err := pt.m.run(job, kernels, pt.unroll)
		if err != nil {
			return nil, fmt.Errorf("%s %s k=%d u=%d: %w", name, bench, kernels, pt.value, err)
		}
		if relative && i == 0 {
			seq = par
		}
		rows = o.emit(rows, pt.m, Row{Experiment: name, Benchmark: bench, Size: spec.SizeLabel(param),
			Class: cls, Kernels: kernels, Unroll: pt.value, Seq: seq, Par: par})
	}
	return rows, nil
}

// Fig5 regenerates Figure 5: TFluxHard speedup per benchmark, kernel count
// and problem size, in simulated cycles on the 28-core Sparc CMP.
func Fig5(o Options) ([]Row, error) {
	return speedups(o, "fig5", hard("TFluxHard", hardsim.Config{Metrics: o.Metrics}), o.kernelCounts([]int{2, 4, 8, 16, 27}))
}

// Fig6 regenerates Figure 6: TFluxSoft speedups, on the wall clock or as
// the vtime machine (Options.virtual).
func Fig6(o Options) ([]Row, error) {
	ks := o.kernelCounts([]int{2, 4, 6})
	return speedups(o, "fig6", soft(o, slices.Max(ks)), ks)
}

// Fig7 regenerates Figure 7: TFluxCell speedups for the four benchmarks
// the paper evaluates on the Cell.
func Fig7(o Options) ([]Row, error) {
	ks := o.kernelCounts([]int{2, 4, 6})
	return speedups(o, "fig7", cell(o, slices.Max(ks)), ks)
}

// Fig5X86 regenerates the paper's §6.1.2 companion experiment: the same
// benchmarks on a simulated 9-core x86 machine "similar to Bagle" (8
// kernels, one core reserved for the OS). The paper reports that "the
// speedup values observed and conclusions drawn are similar" to the Sparc
// machine; this experiment lets that be checked directly against fig5.
func Fig5X86(o Options) ([]Row, error) {
	return speedups(o, "fig5x86", hard("TFluxHard/x86", hardsim.Config{Mem: mem.X86Config()}), o.kernelCounts([]int{2, 4, 8}))
}

// TSULatency regenerates the §3.3/§4.1 sensitivity study: TFluxHard
// execution time as the TSU processing latency grows from 1 to 128 cycles
// (the paper reports <1% impact). Speedup is relative to the 1-cycle
// configuration; the Unroll column reports the latency. DThreads are built
// at unroll 8, the coarse-grain regime where the paper states the claim.
func TSULatency(o Options) ([]Row, error) {
	lats := []sim.Time{1, 4, 16, 64, 128}
	if o.Quick {
		lats = []sim.Time{1, 128}
	}
	var points []point
	for _, lat := range lats {
		points = append(points, point{value: int(lat), unroll: 8,
			m: hard("TFluxHard", hardsim.Config{TSULat: lat, Metrics: o.Metrics})})
	}
	var rows []Row
	for _, bench := range []string{"TRAPEZ", "MMULT"} {
		r, err := study(o, "tsulat", bench, workload.Medium, o.capKernels(16), true, points)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Groups is the multiple-TSU-Groups study (§4.1's "under development"
// extension): a fine-grained workload on many cores, where the single
// serializing TSU Group becomes the bottleneck and partitioning it into
// 2 or 4 groups recovers performance. Speedup is relative to the
// single-group configuration; Unroll reports the group count. DThreads
// are deliberately fine-grained (unroll 1) so TSU command processing is
// on the critical path.
func Groups(o Options) ([]Row, error) {
	var points []point
	for _, g := range []int{1, 2, 4} {
		points = append(points, point{value: g, unroll: 1,
			m: hard("TFluxHard", hardsim.Config{TSUGroups: g, TSULat: 128, Metrics: o.Metrics})})
	}
	return study(o, "groups", "TRAPEZ", workload.Small, o.capKernels(27), true, points)
}

// UnrollSweep regenerates the unroll-factor study: speedup of MMULT
// (Medium) on each platform across unroll factors 1..64, showing that
// TFluxHard peaks at small factors while the software TSUs need coarser
// DThreads (§6.2.2, §6.3).
func UnrollSweep(o Options) ([]Row, error) {
	unrolls := []int{1, 2, 4, 8, 16, 32, 64}
	if o.Quick {
		unrolls = []int{1, 64}
	}
	var rows []Row
	sk := o.capKernels(6) // the software legs' kernel count
	for _, leg := range []struct {
		m       machine
		kernels int
	}{
		{hard("TFluxHard", hardsim.Config{}), o.capKernels(16)},
		{soft(o, sk), sk},
		{cell(o, sk), sk},
	} {
		var points []point
		for _, u := range unrolls {
			points = append(points, point{value: u, unroll: u, m: leg.m})
		}
		r, err := study(o, "unroll", "MMULT", workload.Medium, leg.kernels, false, points)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Table1 renders the workload description table (Table 1): one line per
// distinct size triple of a benchmark, tagged with the platforms
// (Simulated, Native, Cell) that use it.
func Table1() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tSource\tDescription\tPlatforms\tSmall\tMedium\tLarge")
	for _, s := range workload.Suite() {
		var triples [][3]int
		tags := map[[3]int]string{}
		for i, pf := range []workload.Platform{workload.Simulated, workload.Native, workload.Cell} {
			sizes, ok := s.Sizes(pf)
			if !ok {
				continue
			}
			if tags[sizes] == "" {
				triples = append(triples, sizes)
			}
			tags[sizes] += "SNC"[i : i+1]
		}
		for _, sizes := range triples {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				s.Name, s.Source, s.Description, tags[sizes],
				s.SizeLabel(sizes[0]), s.SizeLabel(sizes[1]), s.SizeLabel(sizes[2]))
		}
	}
	w.Flush()
	return b.String()
}

// Budget renders the TSU hardware-cost estimate (§4.1).
func Budget() string {
	est := hardsim.TransistorBudget(256, 27)
	return fmt.Sprintf(
		"TSU Group hardware estimate (256 DThread slots, 27 per-CPU units):\n"+
			"  this model: %dK transistors\n"+
			"  paper §4.1: ~430K transistors\n", est/1000)
}

// Format renders rows as an aligned text table.
func Format(rows []Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "experiment\tbenchmark\tplatform\tmode\tsize\tkernels\tunroll\tseq\tpar\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%.4g %s\t%.4g %s\t%.2f\n",
			r.Experiment, r.Benchmark, r.Platform, r.Mode, r.Size, r.Kernels, r.Unroll,
			r.Seq, r.Unit, r.Par, r.Unit, r.Speedup)
	}
	w.Flush()
	return b.String()
}

// Summary computes the headline claims from a row set: the geometric-mean
// speedup at the largest kernel count present (the paper reports 21x on 27
// TFluxHard nodes and 4.4x on 6 software nodes, at the largest sizes).
func Summary(rows []Row) string {
	maxK, maxClass := 0, workload.Small
	for _, r := range rows {
		maxK, maxClass = max(maxK, r.Kernels), max(maxClass, r.Class)
	}
	var sp []float64
	for _, r := range rows {
		if r.Kernels == maxK && r.Class == maxClass && !math.IsNaN(r.Speedup) {
			sp = append(sp, r.Speedup)
		}
	}
	if len(sp) == 0 {
		return "no rows"
	}
	return fmt.Sprintf("mean speedup at %d kernels (largest size): %.1fx (geomean %.1fx) over %d benchmarks",
		maxK, stats.Mean(sp), stats.GeoMean(sp), len(sp))
}
