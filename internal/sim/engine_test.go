package sim

import (
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
