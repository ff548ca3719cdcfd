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

// release gives the scratch to the next run's takeScratch. The queues and
// buffers past this run's kernel count, an earlier and wider run's, are
// let go first if keeping them would pass the list's bound, as
// State.Release lets go of SMs.
func (sc *runScratch) release() {
	kernels := len(sc.bufs) - 1
	used, spare := 0, 0
	for k, q := range sc.queues {
		if k < kernels {
			used += cap(q.items)
		} else {
			spare += cap(q.items)
		}
	}
	for i, b := range sc.bufs[:cap(sc.bufs)] {
		n, extra := cap(b.ready)+cap(b.targets)+cap(b.ctx)+cap(b.recs), 0
		for k, batch := range b.pend[:cap(b.pend)] {
			if k < len(b.pend) {
				n += cap(batch)
			} else {
				extra += cap(batch)
			}
		}
		if i <= kernels {
			used, spare = used+n, spare+extra
		} else {
			spare += n + extra
		}
	}
	scratches.Put(sc, used, spare, (*runScratch).dropSpare)
}

// dropSpare lets go of the queues, buffers and batches past the last
// run's kernel count.
func (sc *runScratch) dropSpare() {
	kernels := len(sc.bufs) - 1
	clear(sc.queues[kernels:])
	sc.queues = sc.queues[:kernels]
	clear(sc.bufs[kernels+1 : cap(sc.bufs)])
	for i := range sc.bufs {
		b := &sc.bufs[i]
		clear(b.pend[len(b.pend):cap(b.pend)])
	}
}
