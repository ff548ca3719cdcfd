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

// Time is simulated time in CPU cycles.
type Time int64

// Engine is a deterministic event queue. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events []event // binary min-heap by (at, seq)
}

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-cycle events
	do  func()
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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
	e.events = append(e.events, event{at: t, seq: e.seq, do: do})
	h := e.events
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// After schedules do to run d cycles from now.
func (e *Engine) After(d Time, do func()) { e.At(e.now+d, do) }

// Step runs the earliest pending event and returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	n := len(e.events) - 1
	if n < 0 {
		return false
	}
	h := e.events
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // drop the callback for the collector
	h = h[:n]
	e.events = h
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
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
