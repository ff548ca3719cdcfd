package dist

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
	"tflux/internal/workload"
)

// TestDistributedWorkloads runs every suite benchmark on the distributed
// runtime at a small size: 2 nodes × 2 kernels, each node holding its own
// replica built from the same deterministic constructor. The coordinator's
// job (whose arrays back the canonical buffers) must verify against the
// sequential reference — proving the import/export declarations carry all
// inter-thread data across address spaces.
func TestDistributedWorkloads(t *testing.T) {
	smalls := map[string]int{
		"TRAPEZ": 12,
		"MMULT":  24,
		"QSORT":  1200,
		"SUSAN":  48<<16 | 36,
		"FFT":    16,
	}
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			param := smalls[spec.Name]
			build, owner := workload.Replicas(spec, param, 4, 16)
			st, svb, err := RunLocal(build, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			job, err := owner(svb)
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Verify(); err != nil {
				t.Fatal(err)
			}
			if st.BytesIn == 0 {
				t.Fatal("no export traffic — results cannot have crossed address spaces")
			}
		})
	}
}

// brokenBuild is a Job whose Build fails on call number failAt, counted
// across every Job its Spec makes: 1 is the coordinator's replica, 2 a
// worker's.
type brokenBuild struct {
	workload.Job
	calls  *int32
	failAt int32
}

func (b brokenBuild) Build(kernels, unroll int) (*core.Program, error) {
	if atomic.AddInt32(b.calls, 1) == b.failAt {
		return nil, errors.New("arena exhausted")
	}
	return b.Job.Build(kernels, unroll)
}

// TestReplicaBuildErrorSurfaces: the hand-rolled build closures this
// replaced turned a failed Job.Build into a nil program, so all the user
// ever saw was the runtime's "program builder returned nil".
// workload.Replicas keeps the Build error and its owner lookup reports it.
func TestReplicaBuildErrorSurfaces(t *testing.T) {
	for failAt := int32(1); failAt <= 2; failAt++ {
		spec := workload.TrapezSpec()
		var calls int32
		makeJob := spec.Make
		spec.Make = func(param int) workload.Job { return brokenBuild{makeJob(param), &calls, failAt} }

		build, owner := workload.Replicas(spec, 12, 4, 16)
		_, svb, runErr := RunLocal(build, 2, 2)
		if runErr == nil || !strings.Contains(runErr.Error(), "program builder returned nil") {
			t.Fatalf("build %d fails: run error = %v, want the runtime's nil-program report", failAt, runErr)
		}
		if _, err := owner(svb); err == nil || !strings.Contains(err.Error(), "arena exhausted") {
			t.Fatalf("build %d fails: owner error = %v, want the Build failure", failAt, err)
		}
	}
}
