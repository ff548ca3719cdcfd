package rts

import (
	"sync"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// scratchBufs is one driver goroutine's reusable Post-Processing buffers:
// a kernel's, or the emulator's. Every one starts empty each run.
type scratchBufs struct {
	// ready collects what one completion (or one inbox step) fired; pend
	// holds the per-kernel dispatch batches flush publishes.
	ready []tsu.Ready
	pend  [][]core.Instance
	// targets and ctx are a kernel's arc-expansion buffers; recs is the
	// emulator's TUB drain buffer.
	targets []core.Instance
	ctx     []core.Context
	recs    []tsu.Completion
}

// runScratch is what a run grows and no run keeps: the ready queues (their
// instance arrays) and every driver's buffers. Run takes one
// from scratchPool, which is process-wide, and puts it back once all of
// the run's goroutines have exited; takeScratch resets whatever the last
// run left behind (an aborted run leaves queued instances).
// The TSU State is not part of it: its thread table is built per run, and
// only its SM arrays recycle, through State.Release.
type runScratch struct {
	queues []*readyQueue
	bufs   []scratchBufs // one per kernel, then the emulator's
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// takeScratch returns reset scratch for a run on the given number of
// kernels: that many ready queues and one more set of buffers, each with a
// pend batch per kernel.
func takeScratch(kernels int) *runScratch {
	sc := scratchPool.Get().(*runScratch)
	for k := 0; k < kernels; k++ {
		if k < len(sc.queues) {
			sc.queues[k].reset()
		} else {
			sc.queues = append(sc.queues, newReadyQueue())
		}
	}
	for len(sc.bufs) < kernels+1 {
		sc.bufs = append(sc.bufs, scratchBufs{})
	}
	for i := range sc.bufs[:kernels+1] {
		b := &sc.bufs[i]
		b.ready, b.targets, b.ctx, b.recs = b.ready[:0], b.targets[:0], b.ctx[:0], b.recs[:0]
		b.pend = b.pend[:cap(b.pend)]
		for len(b.pend) < kernels {
			b.pend = append(b.pend, nil)
		}
		b.pend = b.pend[:kernels]
		for k := range b.pend {
			b.pend[k] = b.pend[k][:0]
		}
	}
	return sc
}
