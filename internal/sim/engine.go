// Package sim is a small deterministic discrete-event simulation engine.
//
// It is the substrate under the TFluxHard full-system model (our
// replacement for the Simics simulator the paper evaluates on): simulated
// cores, the memory-mapped TSU device and the interconnect are all actors
// scheduling callbacks at absolute cycle times. The engine is
// single-threaded; two events at the same cycle fire in scheduling order,
// so a given program and configuration always produce the same cycle
// counts.
package sim

import "container/heap"

// Time is simulated time in CPU cycles.
type Time int64

// Engine is a deterministic event queue. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
}

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-cycle events
	do  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules do to run at absolute time t. Scheduling in the past (t <
// Now) is a simulation bug and panics.
func (e *Engine) At(t Time, do func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, do: do})
}

// After schedules do to run d cycles from now.
func (e *Engine) After(d Time, do func()) { e.At(e.now+d, do) }

// Step runs the earliest pending event and returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	if e.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	ev.do()
	return true
}

// Run drains the event queue.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Resource models a unit that serves one request at a time (the TSU
// device's command pipeline, a bus): requests arriving while it is busy
// queue behind it in arrival order.
type Resource struct {
	busyUntil Time
	// Busy accumulates total occupied cycles, for utilization stats.
	Busy Time
}

// Acquire reserves the resource for dur cycles starting no earlier than
// `at`, returning the time the request completes.
func (r *Resource) Acquire(at, dur Time) (done Time) {
	start := at
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	r.Busy += dur
	return r.busyUntil
}
