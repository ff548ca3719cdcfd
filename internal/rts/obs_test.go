package rts

import (
	"testing"

	"tflux/internal/obs"
)

// threadEvents filters a recorder's deterministic event order down to the
// DThread executions.
func threadEvents(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.ThreadComplete {
			out = append(out, e)
		}
	}
	return out
}

func TestRecorderTimeline(t *testing.T) {
	p, _ := sumProgram(8, 20000)
	rec := obs.NewRecorder()
	if _, err := Run(p, Options{Kernels: 2, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	events := threadEvents(rec)
	// 8 workers + 1 reduce + inlet + outlet.
	if len(events) != 11 {
		t.Fatalf("events = %d, want 11", len(events))
	}
	var app, service int
	for i, e := range events {
		if e.End() < e.Start {
			t.Fatalf("event %d ends before it starts: %+v", i, e)
		}
		if e.Lane < 0 || e.Lane >= 2 {
			t.Fatalf("event %d on kernel %d", i, e.Lane)
		}
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatal("events not sorted by start")
		}
		if e.Service {
			service++
		} else {
			app++
		}
	}
	if app != 9 || service != 2 {
		t.Fatalf("app/service = %d/%d, want 9/2", app, service)
	}

	// A recorder reused for a second run holds that run only.
	p2, _ := sumProgram(2, 100)
	if _, err := Run(p2, Options{Kernels: 1, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if n := len(threadEvents(rec)); n != 5 { // 2 workers + reduce + inlet + outlet
		t.Fatalf("second run events = %d, want 5", n)
	}
}

func TestRecorderUtilization(t *testing.T) {
	p, _ := sumProgram(16, 50000)
	rec := obs.NewRecorder()
	if _, err := Run(p, Options{Kernels: 3, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	util := obs.Utilization(rec.Events(), 3)
	if len(util) != 3 {
		t.Fatalf("util = %v", util)
	}
	var any bool
	for k, u := range util {
		if u < 0 || u > 1.0001 {
			t.Fatalf("kernel %d utilization %v out of range", k, u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no kernel showed any utilization")
	}
}
