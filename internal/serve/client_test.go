package serve

import (
	"math"
	"strings"
	"testing"

	"tflux/internal/dist"
	"tflux/internal/rts"
	"tflux/internal/workload"
)

// TestVerifyReplica: a correct result set verifies, and a region the
// replica cannot hold — past the end of its buffer, or in a buffer it
// does not have — is an error rather than a region quietly left out of
// the comparison.
func TestVerifyReplica(t *testing.T) {
	const param, kernels, unroll = 12, 4, 16
	spec := workload.TrapezSpec()

	// The "daemon": run the program for real and ship its buffers.
	ran := spec.Make(param)
	prog, err := ran.Build(kernels, unroll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rts.Run(prog, rts.Options{Kernels: kernels}); err != nil {
		t.Fatal(err)
	}
	var good []dist.RegionData
	for _, b := range prog.Buffers {
		data := append([]byte(nil), ran.SharedBuffers().Bytes(b.Name)...)
		good = append(good, dist.RegionData{Buffer: b.Name, Data: data})
	}

	replica := func() workload.Job {
		job := spec.Make(param)
		if _, err := job.Build(kernels, unroll); err != nil {
			t.Fatal(err)
		}
		return job
	}
	if err := VerifyReplica(replica(), good); err != nil {
		t.Fatalf("good result set: %v", err)
	}
	for name, bad := range map[string]dist.RegionData{
		"out of range":    {Buffer: "result", Offset: 4, Data: make([]byte, 8)},
		"negative offset": {Buffer: "result", Offset: -1, Data: make([]byte, 1)},
		"wrapping offset": {Buffer: "result", Offset: math.MaxInt64, Data: make([]byte, 1)},
		"unknown buffer":  {Buffer: "nonesuch", Data: make([]byte, 8)},
	} {
		err := VerifyReplica(replica(), append(good[:len(good):len(good)], bad))
		if err == nil || !strings.Contains(err.Error(), "does not fit the local replica") {
			t.Errorf("%s: err = %v, want a does-not-fit error", name, err)
		}
	}
}
