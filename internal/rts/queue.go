package rts

import (
	"sync"
	"time"

	"tflux/internal/core"
)

// readyQueue is one Kernel's ready-thread queue, fed by the TSU emulator
// and drained by the Kernel in arrival order. The TSU releases each
// kernel's instances of a template in ascending context order (the
// chunked TKT), so the queue head is already the paper's locality pick
// (§3.1); see EXPERIMENTS.md, "Why the ready queue is FIFO".
type readyQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	// items[head:] are the queued instances, oldest first. The consumed
	// prefix items[:head] is reclaimed when the queue drains or, on push,
	// once it is the larger half, so the array stops growing.
	items []core.Instance
	head  int

	closed  bool
	kicked  bool // a shard inbox has work for this kernel (see kick)
	waiters int  // kernels parked in pop; gates the wakeup on push

	idle time.Duration // total time the Kernel spent blocked here
}

// newReadyQueue builds an empty queue.
func newReadyQueue() *readyQueue {
	q := &readyQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// reset empties the queue for another run, keeping the array grown. The
// kernel that used it last has exited.
func (q *readyQueue) reset() {
	q.items, q.head = q.items[:0], 0
	q.closed, q.kicked = false, false
	q.waiters = 0
	q.idle = 0
}

// pushBatch enqueues a whole batch of ready instances under a single lock
// acquisition with a single wakeup. On a closed queue (error-path shutdown
// racing a driver's last batch) the batch is dropped: the run is already
// aborted.
func (q *readyQueue) pushBatch(insts []core.Instance) {
	if len(insts) == 0 {
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if 2*q.head > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, insts...)
	sig := q.waiters > 0
	q.mu.Unlock()
	if sig {
		q.cond.Signal()
	}
}

// close wakes the Kernel for exit once the program finishes.
func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// kick wakes the queue's kernel without enqueuing work: a cross-shard
// batch landed in the shard inbox this kernel steps. The flag is set under
// the queue mutex, so a kick can never be lost between the stepper's inbox
// drain and its park in pop.
func (q *readyQueue) kick() {
	q.mu.Lock()
	q.kicked = true
	sig := q.waiters > 0
	q.mu.Unlock()
	if sig {
		q.cond.Signal()
	}
}

// pop blocks until an instance is available (the oldest arrival), the
// queue is kicked, or the queue is closed.
// A kick on an empty queue returns ok=false, closed=false: the kernel's
// shard inbox needs draining, so the caller re-steps its shard instead of
// sleeping through pending cross-shard decrements (a queue nobody kicks
// never takes that exit). Close wins over queued work — an aborted run
// must not keep executing what was already dispatched — and returns
// ok=false, closed=true. Waiting time is accumulated into q.idle.
func (q *readyQueue) pop() (inst core.Instance, ok, closed bool) {
	q.mu.Lock()
	for !q.closed && q.head == len(q.items) {
		if q.kicked {
			q.kicked = false
			q.mu.Unlock()
			return core.Instance{}, false, false
		}
		start := time.Now()
		q.waiters++
		q.cond.Wait()
		q.waiters--
		q.idle += time.Since(start)
	}
	if q.closed {
		q.mu.Unlock()
		return core.Instance{}, false, true
	}
	// Taking work also consumes any pending kick: the caller steps its
	// shard on every loop iteration anyway.
	q.kicked = false
	it := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.mu.Unlock()
	return it, true, false
}

// idleTime returns the accumulated blocking time (safe after the Kernel
// has exited).
func (q *readyQueue) idleTime() time.Duration {
	q.mu.Lock()
	d := q.idle
	q.mu.Unlock()
	return d
}
