package rts

import (
	"slices"

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
// instance arrays) and every driver's buffers. Run takes one from
// scratches and gives it back once all of the run's goroutines have
// exited; takeScratch resets whatever the last run left behind (an
// aborted run leaves queued instances). The TSU State and TUB are not
// part of it: they recycle through their own Release.
type runScratch struct {
	queues []*readyQueue
	bufs   []scratchBufs // one per kernel, then the emulator's
}

// scratches holds the scratch of finished runs, of any kernel count.
var scratches tsu.FreeList[runScratch]

// takeScratch returns reset scratch for a run on the given number of
// kernels: that many ready queues and one more set of buffers, each with a
// pend batch per kernel.
func takeScratch(kernels int) *runScratch {
	sc := scratches.Get()
	if sc == nil {
		sc = new(runScratch)
	}
	for len(sc.queues) < kernels {
		sc.queues = append(sc.queues, newReadyQueue())
	}
	for _, q := range sc.queues[:kernels] {
		q.reset()
	}
	sc.bufs = slices.Grow(sc.bufs[:0], kernels+1)[:kernels+1]
	for i := range sc.bufs {
		b := &sc.bufs[i]
		b.ready, b.targets, b.ctx, b.recs = b.ready[:0], b.targets[:0], b.ctx[:0], b.recs[:0]
		b.pend = slices.Grow(b.pend[:0], kernels)[:kernels]
		for k := range b.pend {
			b.pend[k] = b.pend[k][:0]
		}
	}
	return sc
}

// release gives the scratch to the next run's takeScratch.
func (sc *runScratch) release() {
	n := 0
	for _, q := range sc.queues {
		n += cap(q.items)
	}
	for _, b := range sc.bufs[:cap(sc.bufs)] {
		n += cap(b.ready) + cap(b.targets) + cap(b.ctx) + cap(b.recs)
		for _, batch := range b.pend[:cap(b.pend)] {
			n += cap(batch)
		}
	}
	scratches.Put(sc, n)
}
