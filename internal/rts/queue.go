package rts

import (
	"sync"
	"time"

	"tflux/internal/core"
)

// nilNode marks an absent link in the queue's node pool.
const nilNode = int32(-1)

// qnode is one queued ready instance. Nodes live in a pooled slice and are
// threaded onto two doubly-linked lists: the global arrival order (prev/
// next) and the per-template arrival order (tprev/tnext). Both lists give
// O(1) unlink from any position, which is what makes the locality pick
// constant-time.
type qnode struct {
	inst         core.Instance
	seq          uint64 // monotonically increasing arrival stamp
	prev, next   int32
	tprev, tnext int32
}

// tmplList heads one template's sub-list within the queue (locality index).
type tmplList struct {
	head, tail int32
}

// readyQueue is one Kernel's ready-thread queue, fed by the TSU emulator
// and drained by the Kernel. It is array-backed: pooled doubly-linked
// nodes with O(1) push, O(1) pop at the head and O(1) removal of an
// indexed interior node, plus a per-template index so the locality pick
// finds its preferred instance without scanning the queue.
type readyQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	nodes      []qnode
	free       int32 // free-list head, linked through next
	head, tail int32 // global arrival order
	count      int
	seq        uint64 // next arrival stamp

	// byTmpl indexes each template's queued instances in arrival order,
	// indexed densely by ThreadID (thread IDs are bounded, see the TSU's
	// dense-table guard) and grown on demand.
	byTmpl []tmplList

	closed  bool
	kicked  bool // a shard inbox has work for this kernel (see kick)
	waiters int  // kernels parked in pop; gates the wakeup on push

	idle time.Duration // total time the Kernel spent blocked here
}

// queueScan is the locality pick's lookahead bound, in arrival stamps.
const queueScan = 64

// newReadyQueue builds an empty queue.
func newReadyQueue() *readyQueue {
	q := &readyQueue{head: nilNode, tail: nilNode, free: nilNode}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// reset empties the queue for another run, keeping the node array and the
// template index grown. The kernel that used it last has exited.
func (q *readyQueue) reset() {
	q.nodes = q.nodes[:0]
	q.byTmpl = q.byTmpl[:0]
	q.free, q.head, q.tail = nilNode, nilNode, nilNode
	q.count, q.seq = 0, 0
	q.closed, q.kicked = false, false
	q.waiters = 0
	q.idle = 0
}

// alloc takes a node from the free list, growing the pool as needed.
// Caller holds q.mu.
func (q *readyQueue) alloc() int32 {
	if q.free != nilNode {
		n := q.free
		q.free = q.nodes[n].next
		return n
	}
	q.nodes = append(q.nodes, qnode{})
	return int32(len(q.nodes) - 1)
}

// enqueue links one instance at the global tail (and its template tail).
// Caller holds q.mu.
func (q *readyQueue) enqueue(inst core.Instance) {
	n := q.alloc()
	nd := &q.nodes[n]
	nd.inst = inst
	nd.seq = q.seq
	q.seq++
	nd.prev = q.tail
	nd.next = nilNode
	if q.tail != nilNode {
		q.nodes[q.tail].next = n
	} else {
		q.head = n
	}
	q.tail = n
	for int(inst.Thread) >= len(q.byTmpl) {
		q.byTmpl = append(q.byTmpl, tmplList{head: nilNode, tail: nilNode})
	}
	tl := &q.byTmpl[inst.Thread]
	nd.tprev = tl.tail
	nd.tnext = nilNode
	if tl.tail != nilNode {
		q.nodes[tl.tail].tnext = n
	} else {
		tl.head = n
	}
	tl.tail = n
	q.count++
}

// remove unlinks node n from both lists, frees it, and returns its
// instance. Caller holds q.mu.
func (q *readyQueue) remove(n int32) core.Instance {
	nd := &q.nodes[n]
	inst := nd.inst
	if nd.prev != nilNode {
		q.nodes[nd.prev].next = nd.next
	} else {
		q.head = nd.next
	}
	if nd.next != nilNode {
		q.nodes[nd.next].prev = nd.prev
	} else {
		q.tail = nd.prev
	}
	tl := &q.byTmpl[inst.Thread]
	if nd.tprev != nilNode {
		q.nodes[nd.tprev].tnext = nd.tnext
	} else {
		tl.head = nd.tnext
	}
	if nd.tnext != nilNode {
		q.nodes[nd.tnext].tprev = nd.tprev
	} else {
		tl.tail = nd.tprev
	}
	nd.next = q.free
	q.free = n
	q.count--
	return inst
}

// pick selects the node to dequeue: the paper's locality preference (§3.1)
// — the next context of the template the Kernel executed last, else any
// context of that template, else the oldest arrival. Only instances that
// arrived within queueScan stamps of the current head are eligible, which
// bounds the lookahead and how long the head can be passed over. Caller
// holds q.mu and guarantees count > 0.
func (q *readyQueue) pick(last core.Instance) int32 {
	if int(last.Thread) < len(q.byTmpl) {
		tl := &q.byTmpl[last.Thread]
		limit := q.nodes[q.head].seq + queueScan
		same := nilNode
		wantCtx := last.Ctx + 1
		for n, steps := tl.head, 0; n != nilNode && steps < queueScan; n, steps = q.nodes[n].tnext, steps+1 {
			nd := &q.nodes[n]
			if nd.seq >= limit {
				break // template list is in arrival order: all later entries are out of range too
			}
			if nd.inst.Ctx == wantCtx {
				return n
			}
			if same == nilNode {
				same = n
			}
		}
		if same != nilNode {
			return same
		}
	}
	return q.head
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
	for _, inst := range insts {
		q.enqueue(inst)
	}
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

// pop blocks until an instance is available (pick's choice, with last as
// the locality hint), the queue is kicked, or the queue is closed.
// A kick on an empty queue returns ok=false, closed=false: the kernel's
// shard inbox needs draining, so the caller re-steps its shard instead of
// sleeping through pending cross-shard decrements (a queue nobody kicks
// never takes that exit). Close wins over queued work — an aborted run
// must not keep executing what was already dispatched — and returns
// ok=false, closed=true. Waiting time is accumulated into q.idle.
func (q *readyQueue) pop(last core.Instance) (inst core.Instance, ok, closed bool) {
	q.mu.Lock()
	for !q.closed && q.count == 0 {
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
	it := q.remove(q.pick(last))
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
