package rts

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/core"
)

// TestRunAbortStopsQueuedBodies: a panicking body costs one program,
// bounded. Context 0 of a 20 000-instance source template panics while the
// rest of the template sits in the ready queues; the abort must not run
// that backlog out. Each kernel may already have popped one more instance
// when the queues close, so at most Kernels bodies start after the panic —
// on both planes, with and without stealing.
func TestRunAbortStopsQueuedBodies(t *testing.T) {
	const kernels, instances = 4, 20000
	for _, opt := range []Options{
		{Kernels: kernels},
		{Kernels: kernels, TSUShards: kernels},
		{Kernels: kernels, Steal: true},
		{Kernels: kernels, TSUShards: kernels, Steal: true},
	} {
		t.Run(fmt.Sprintf("shards=%d/steal=%v", opt.TSUShards, opt.Steal), func(t *testing.T) {
			var panicked atomic.Bool
			var after atomic.Int64
			src := core.NewTemplate(1, "src", func(c core.Context) {
				if c == 0 {
					panicked.Store(true)
					panic("kaboom")
				}
				// A body that starts during the teardown holds its kernel
				// until the panicking kernel has closed the queues, so the
				// count measures the runtime, not the goroutine scheduler.
				// (Capped, so a runtime that does run the backlog out fails
				// the test quickly instead of sleeping through it.)
				if panicked.Load() && after.Add(1) <= 2*kernels {
					time.Sleep(10 * time.Millisecond)
				}
			})
			src.Instances = instances
			p := core.NewProgram("abort")
			p.AddBlock().Add(src)
			_, err := Run(p, opt)
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("err = %v, want the body's panic", err)
			}
			if n := after.Load(); n > kernels {
				t.Fatalf("%d bodies started after the panic, want at most %d", n, kernels)
			}
		})
	}
}

// panicMapping is a user Mapping whose forward direction panics for one
// producer context.
type panicMapping struct {
	core.OneToOne
	at core.Context
}

func (m panicMapping) AppendTargets(dst []core.Context, pctx, pInst, cInst core.Context) []core.Context {
	if pctx == m.at {
		panic("kaboom-map")
	}
	return m.OneToOne.AppendTargets(dst, pctx, pInst, cInst)
}

// TestRunAbortOnPostProcessingPanic: a panic in the kernel-side
// Post-Processing Phase — here a user Mapping's AppendTargets during arc
// expansion — is contained like a body panic: Run returns an error naming
// the instance, on both planes, instead of taking the process down.
func TestRunAbortOnPostProcessingPanic(t *testing.T) {
	const kernels = 4
	for _, opt := range []Options{
		{Kernels: kernels},
		{Kernels: kernels, TSUShards: kernels},
		{Kernels: kernels, Steal: true},
		{Kernels: kernels, TSUShards: kernels, Steal: true},
	} {
		t.Run(fmt.Sprintf("shards=%d/steal=%v", opt.TSUShards, opt.Steal), func(t *testing.T) {
			prod := core.NewTemplate(1, "prod", func(core.Context) {})
			prod.Instances = 8
			prod.Then(2, panicMapping{at: 3})
			cons := core.NewTemplate(2, "cons", func(core.Context) {})
			cons.Instances = 8
			p := core.NewProgram("abort-map")
			b := p.AddBlock()
			b.Add(prod)
			b.Add(cons)
			_, err := Run(p, opt)
			if err == nil || !strings.Contains(err.Error(), "kaboom-map") || !strings.Contains(err.Error(), "T1.3") {
				t.Fatalf("err = %v, want the mapping's panic on T1.3", err)
			}
		})
	}
}
