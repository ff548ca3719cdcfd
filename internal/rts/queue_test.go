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

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := newReadyQueue()
	done := make(chan bool)
	go func() {
		_, ok, _ := q.pop()
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
	if _, ok, _ := q.pop(); ok {
		t.Fatal("pop returned item pushed after close")
	}
}

func TestQueuePushBatchPreservesArrivalOrder(t *testing.T) {
	q := newReadyQueue()
	q.push(inst(1, 0))
	q.pushBatch([]core.Instance{inst(1, 1), inst(1, 2), inst(1, 3)})
	q.pushBatch(nil) // no-op
	for i := core.Context(0); i < 4; i++ {
		got, ok, _ := q.pop()
		if !ok || got != inst(1, i) {
			t.Fatalf("pop = %v, %v; want T1.%d", got, ok, i)
		}
	}
}

func TestQueuePushBatchAfterCloseDrops(t *testing.T) {
	q := newReadyQueue()
	q.close()
	q.pushBatch([]core.Instance{inst(1, 0)})
	if n := len(q.items) - q.head; n != 0 {
		t.Fatalf("batch pushed after close was queued: %d queued", n)
	}
}

func TestQueueCompactionKeepsOrder(t *testing.T) {
	// Push batches of three and pop two at a time, so the queue grows
	// while its consumed prefix keeps crossing the compaction point: every
	// instance must come out exactly once, in push order.
	q := newReadyQueue()
	var pushed, popped core.Context
	popN := func(n int) {
		for i := 0; i < n; i++ {
			got, ok, _ := q.pop()
			if !ok || got != inst(1, popped) {
				t.Fatalf("pop = %v, %v; want T1.%d", got, ok, popped)
			}
			popped++
		}
	}
	for round := 0; round < 200; round++ {
		q.pushBatch([]core.Instance{inst(1, pushed), inst(1, pushed+1), inst(1, pushed+2)})
		pushed += 3
		popN(2)
	}
	popN(int(pushed - popped))

	// A churned queue at constant depth reuses its array instead of
	// growing it.
	q = newReadyQueue()
	for c := core.Context(0); c < 8; c++ {
		q.push(inst(2, c))
	}
	for i := 0; i < 1000; i++ {
		it, ok, _ := q.pop()
		if !ok {
			t.Fatal("queue closed")
		}
		q.push(it)
	}
	if c := cap(q.items); c > 64 {
		t.Fatalf("array grew to capacity %d for a depth-8 workload", c)
	}
}
