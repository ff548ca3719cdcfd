package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of FIFO order: %v", got)
		}
	}
}

// TestEngineHeapOrderProperty pins the heap against a stable sort: events
// scheduled at random times, some from inside other events, fire in time
// order and, within a cycle, in scheduling order.
func TestEngineHeapOrderProperty(t *testing.T) {
	type sched struct {
		at Time
		id int
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var e Engine
		var want, got []sched
		var add func(at Time)
		add = func(at Time) {
			s := sched{at, len(want)}
			want = append(want, s)
			e.At(at, func() {
				got = append(got, s)
				if len(want) < 500 && r.Intn(2) == 0 {
					add(e.Now() + Time(r.Intn(8)))
				}
			})
		}
		for i := 0; i < 200; i++ {
			add(Time(r.Intn(50)))
		}
		e.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestEngineEventAllocatesNothing pins that scheduling and running an
// event with a reused callback allocates nothing once the queue has
// grown: no event is boxed on its way into or out of the heap.
func TestEngineEventAllocatesNothing(t *testing.T) {
	var e Engine
	fired := 0
	do := func() { fired++ }
	const batch = 64
	run := func() {
		for i := 0; i < batch; i++ {
			e.After(Time(i%7), do)
		}
		for e.Step() {
		}
	}
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("%d events allocate %.0f times, want 0", batch, got)
	}
	if fired != 102*batch {
		t.Fatalf("%d events fired, want %d", fired, 102*batch)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var fired []Time
	e.At(1, func() {
		fired = append(fired, e.Now())
		e.After(4, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 5 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestResourceSerialization(t *testing.T) {
	var r Resource
	if done := r.Acquire(10, 5); done != 15 {
		t.Fatalf("first acquire done = %d, want 15", done)
	}
	// Arrives while busy: queues behind.
	if done := r.Acquire(12, 5); done != 20 {
		t.Fatalf("second acquire done = %d, want 20", done)
	}
	// Arrives after idle: starts immediately.
	if done := r.Acquire(100, 5); done != 105 {
		t.Fatalf("third acquire done = %d, want 105", done)
	}
	if r.Busy != 15 {
		t.Fatalf("busy = %d, want 15", r.Busy)
	}
}

// TestResourceMonotoneProperty: completion times are non-decreasing in
// arrival order and never overlap.
func TestResourceMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		var r Resource
		at := Time(0)
		prevDone := Time(0)
		for i, a := range arrivals {
			at += Time(a % 100)
			d := Time(1)
			if i < len(durs) {
				d += Time(durs[i] % 20)
			}
			done := r.Acquire(at, d)
			if done < at+d || done < prevDone+d {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
