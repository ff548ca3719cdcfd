package hardsim_test

import (
	"fmt"
	"testing"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/obs"
	"tflux/internal/workload"
)

// TestReadyOrderFollowsContexts pins the premise that makes every ready
// queue a plain FIFO: the TSU releases each core's instances of a template
// in ascending context order, so the oldest arrival is already the
// next-context pick the paper's §3.1 selection looks for. On every core,
// each template's application instances must complete in ascending
// context order, for every suite workload at the simulated Small and
// Medium sizes. A workload that fails here is the condition for bringing
// a locality pick back (EXPERIMENTS.md, "Why the ready queue is FIFO").
func TestReadyOrderFollowsContexts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite at Small and Medium")
	}
	rec := obs.NewRecorder()
	for _, spec := range workload.Suite() {
		sizes, _ := spec.Sizes(workload.Simulated)
		for _, size := range []workload.SizeClass{workload.Small, workload.Medium} {
			for _, cores := range []int{2, 8, 27} {
				for _, unroll := range []int{1, 4} {
					name := fmt.Sprintf("%s/%v/%d/%d", spec.Name, size, cores, unroll)
					p, err := spec.Make(sizes[size]).Build(cores, unroll)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := hardsim.Run(p, hardsim.Config{Cores: cores, Obs: rec}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := contextOrder(rec.Events()); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// contextOrder reports the first application instance that completed on
// its core after a later context of the same template. events is in
// start order, and a core runs one DThread at a time.
func contextOrder(events []obs.Event) error {
	type laneTmpl struct {
		lane   int
		thread core.ThreadID
	}
	last := make(map[laneTmpl]core.Context)
	for _, e := range events {
		if e.Kind != obs.ThreadComplete || e.Service {
			continue
		}
		k := laneTmpl{e.Lane, e.Inst.Thread}
		if prev, ok := last[k]; ok && e.Inst.Ctx <= prev {
			return fmt.Errorf("core %d ran %v after context %d", e.Lane, e.Inst, prev)
		}
		last[k] = e.Inst.Ctx
	}
	return nil
}
