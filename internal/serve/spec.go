// Package serve is the TFlux service layer: a long-lived coordinator
// daemon (tfluxd) that accepts DDM program submissions from many
// clients and multiplexes them over one shared worker fleet.
//
// DThread bodies are Go closures and cannot cross the wire, so a
// submission names a program instead of carrying it: the client ships a
// dist.ProgramSpec and both the daemon and every worker resolve it
// through the same Resolver registry, yielding structurally identical
// replicas by construction (the TFluxDist model, lifted from one
// program per process to a program stream).
package serve

import (
	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/workload"
)

// WorkloadResolver resolves specs against the paper's benchmark suite:
// Spec.Name selects the workload.ByName entry, Param its problem size,
// and Kernels/Unroll its DDM decomposition. Each call builds a fresh
// Job — fresh input arrays, fresh output — so concurrent programs never
// share state. This is tfluxd's default resolver.
func WorkloadResolver() dist.Resolver {
	return func(spec dist.ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		ws, err := workload.ByName(spec.Name)
		if err != nil {
			return nil, nil, err
		}
		job := ws.Make(spec.Param)
		prog, err := job.Build(spec.Kernels, spec.Unroll)
		if err != nil {
			return nil, nil, err
		}
		job.ResetOutput()
		return prog, job.SharedBuffers(), nil
	}
}
