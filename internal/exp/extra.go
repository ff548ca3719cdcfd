package exp

import (
	"errors"
	"fmt"

	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/rts"
	"tflux/internal/workload"
)

// Fig5X86 regenerates the paper's §6.1.2 companion experiment: the same
// benchmarks on a simulated 9-core x86 machine "similar to Bagle" (8
// kernels, one core reserved for the OS). The paper reports that "the
// speedup values observed and conclusions drawn are similar" to the Sparc
// machine; this experiment lets that be checked directly against fig5.
func Fig5X86(o Options) ([]Row, error) {
	return speedups(o, "fig5x86", hard("TFluxHard/x86", hardsim.Config{Mem: mem.X86Config()}), []int{2, 4, 8})
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

// Policies is the scheduling-policy ablation: the TSU returns the ready
// DThread "most likely to maximize the spatial locality" (§3.1); this
// compares that policy against FIFO and LIFO on the soft runtime with a
// cache-sensitive workload (MMULT row blocks: adjacent contexts share the
// B panels resident in cache). Speedup is relative to the locality
// policy, so values below 1.0 mean the alternative is slower. Wall-clock
// only — the virtual-time model has no ready queue. (Ablation; not a
// paper figure.)
func Policies(o Options) ([]Row, error) {
	var points []point
	for _, pol := range []rts.Policy{rts.PolicyLocality, rts.PolicyFIFO, rts.PolicyLIFO} {
		pol := pol
		points = append(points, point{tag: pol.String(), unroll: 4,
			m: soft(o, false, func(_ *core.Program, kernels int) rts.Options {
				return rts.Options{Kernels: kernels, Policy: pol}
			})})
	}
	cls := workload.Medium
	if o.Quick {
		cls = workload.Small
	}
	return study(o, "policy", "MMULT", cls, 2, true, points)
}

// Dist exercises the distributed runtime (TFluxDist) across node counts,
// reporting protocol cost rather than speedup: on a single host the
// workers are goroutines, so the interesting quantities are the messages
// and bytes the DDM import/export protocol moves, per node count. Each
// node count runs twice — region cache on and off — so the table shows
// what the (key, version) references save on the wire. The Unroll column
// reports the node count; Seq/Par carry bytes and messages.
func Dist(o Options) ([]Row, error) {
	nodeCounts := []int{1, 2, 4}
	if o.Quick {
		nodeCounts = []int{2}
	}
	spec, err := workload.ByName("TRAPEZ")
	if err != nil {
		return nil, err
	}
	sizes, _ := spec.Sizes(workload.Native)
	param := sizes[workload.Small]
	var rows []Row
	for _, nodes := range nodeCounts {
		for _, nocache := range []bool{false, true} {
			build, owner := workload.Replicas(spec, param, 2*nodes, 16)
			opt := dist.Options{Metrics: o.Metrics, DisableRegionCache: nocache}
			st, svb, err := dist.RunLocalOpts(build, nodes, 2, opt)
			job, buildErr := owner(svb)
			if err := errors.Join(buildErr, err); err != nil {
				return nil, fmt.Errorf("dist nodes=%d: %w", nodes, err)
			}
			if err := job.Verify(); err != nil {
				return nil, fmt.Errorf("dist nodes=%d: %w", nodes, err)
			}
			name := spec.Name + "/cache"
			if nocache {
				name = spec.Name + "/nocache"
			}
			rows = append(rows, Row{
				Experiment: "dist", Benchmark: name, Platform: "TFluxDist",
				Size: spec.SizeLabel(param), Class: workload.Small, Kernels: 2 * nodes,
				Unroll: nodes,
				Seq:    float64(st.BytesOut + st.BytesIn), Par: float64(st.Messages),
				Unit: "bytes/msgs", Mode: "local-tcp",
				Speedup: 1,
			})
			o.progress("dist nodes=%d cache=%t: %d messages in %d batches, %d bytes (%d saved by cache refs)",
				nodes, !nocache, st.Messages, st.Batches, st.BytesOut+st.BytesIn, st.BytesSaved)
		}
	}
	return rows, nil
}
