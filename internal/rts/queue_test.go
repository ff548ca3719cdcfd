package rts

import (
	"testing"
	"time"

	"tflux/internal/core"
)

func inst(t core.ThreadID, c core.Context) core.Instance {
	return core.Instance{Thread: t, Ctx: c}
}

// push enqueues one instance: the runtime only ever publishes batches.
func (q *readyQueue) push(in core.Instance) { q.pushBatch([]core.Instance{in}) }

func TestQueueLocalityPrefersNextContext(t *testing.T) {
	q := newReadyQueue()
	q.push(inst(9, 0))
	q.push(inst(5, 7))
	q.push(inst(5, 3))
	got, ok, _ := q.pop(inst(5, 2)) // last executed T5.2
	if !ok || got != inst(5, 3) {
		t.Fatalf("pop = %v, want T5.3", got)
	}
	// No next-context match left: falls back to same template.
	got, ok, _ = q.pop(inst(5, 3))
	if !ok || got != inst(5, 7) {
		t.Fatalf("pop = %v, want T5.7 (same template)", got)
	}
	// Nothing matches: FIFO.
	got, ok, _ = q.pop(inst(5, 7))
	if !ok || got != inst(9, 0) {
		t.Fatalf("pop = %v, want T9.0", got)
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := newReadyQueue()
	done := make(chan bool)
	go func() {
		_, ok, _ := q.pop(core.Instance{})
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned ok on closed queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not unblock on close")
	}
	if q.idleTime() == 0 {
		t.Fatal("idle time not recorded")
	}
}

func TestQueuePushAfterCloseDrops(t *testing.T) {
	q := newReadyQueue()
	q.close()
	q.push(inst(1, 0)) // must not panic
	if _, ok, _ := q.pop(core.Instance{}); ok {
		t.Fatal("pop returned item pushed after close")
	}
}

func TestQueueScanBound(t *testing.T) {
	// The locality match sits n arrivals behind the head: within the
	// lookahead bound it wins, at the bound the FIFO head does.
	for _, c := range []struct {
		ahead int
		want  core.Instance
	}{
		{queueScan - 1, inst(5, 3)},
		{queueScan, inst(1, 0)},
	} {
		q := newReadyQueue()
		for i := 0; i < c.ahead; i++ {
			q.push(inst(1, core.Context(i)))
		}
		q.push(inst(5, 3))
		if got, _, _ := q.pop(inst(5, 2)); got != c.want {
			t.Fatalf("match behind %d arrivals: pop = %v, want %v", c.ahead, got, c.want)
		}
	}
}

func TestQueuePushBatchPreservesArrivalOrder(t *testing.T) {
	q := newReadyQueue()
	q.push(inst(1, 0))
	q.pushBatch([]core.Instance{inst(1, 1), inst(1, 2), inst(1, 3)})
	q.pushBatch(nil) // no-op
	for i := core.Context(0); i < 4; i++ {
		got, ok, _ := q.pop(core.Instance{})
		if !ok || got != inst(1, i) {
			t.Fatalf("pop = %v, %v; want T1.%d", got, ok, i)
		}
	}
}

func TestQueuePushBatchAfterCloseDrops(t *testing.T) {
	q := newReadyQueue()
	q.close()
	q.pushBatch([]core.Instance{inst(1, 0)})
	if q.count != 0 {
		t.Fatalf("batch pushed after close was queued: count = %d", q.count)
	}
}

func TestQueueLocalityInterleavedTemplates(t *testing.T) {
	// Contexts of the preferred template sit far apart in arrival order;
	// the per-template index must still find the successor context.
	q := newReadyQueue()
	for c := core.Context(0); c < 8; c++ {
		for id := core.ThreadID(1); id <= 4; id++ {
			q.push(inst(id, c))
		}
	}
	last := inst(3, 0)
	// T3.1 arrives at position 9 of 32; a next-context walk must pick it.
	got, ok, _ := q.pop(last)
	if !ok || got != inst(3, 1) {
		t.Fatalf("pop = %v, want T3.1", got)
	}
	// Popping every context of T3 in sequence keeps hitting.
	for c := core.Context(2); c < 8; c++ {
		got, ok, _ = q.pop(inst(3, c-1))
		if !ok || got != inst(3, c) {
			t.Fatalf("pop = %v, want T3.%d", got, c)
		}
	}
}

func TestQueueReusesFreedNodes(t *testing.T) {
	// Churning one item through a queue must not grow the node pool.
	q := newReadyQueue()
	q.push(inst(1, 0))
	for i := 0; i < 1000; i++ {
		it, ok, _ := q.pop(inst(1, 0))
		if !ok {
			t.Fatal("queue closed")
		}
		q.push(it)
	}
	if n := len(q.nodes); n > 2 {
		t.Fatalf("node pool grew to %d for a depth-1 workload", n)
	}
}
