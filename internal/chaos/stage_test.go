package chaos

import (
	"strings"
	"testing"
	"time"
)

// stageDelay parses spec and compiles it against a pipeline of n stages.
func stageDelay(t *testing.T, spec string, n int, log *Log) (func(int) time.Duration, error) {
	t.Helper()
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p.StageDelay(n, log)
}

func TestStageDelayRejects(t *testing.T) {
	for _, spec := range []string{"sever:node=0", "throttle:rate=100"} {
		if _, err := stageDelay(t, spec, 3, nil); err == nil {
			t.Errorf("%s: accepted for in-process stream", spec)
		}
	}
	if _, err := stageDelay(t, "latency:node=5:dur=1ms", 3, nil); err == nil || !strings.Contains(err.Error(), "3 stages") {
		t.Errorf("out-of-range stage: %v", err)
	}
}

func TestStageDelayLatency(t *testing.T) {
	log := NewLog()
	delay, err := stageDelay(t, "latency:node=1:after=2:dur=3ms", 3, log)
	if err != nil {
		t.Fatal(err)
	}
	// Untargeted stage: never delayed.
	if d := delay(0); d != 0 {
		t.Fatalf("stage 0 delay = %v", d)
	}
	// Targeted stage: first two firings free, then 3ms each.
	if d := delay(1); d != 0 {
		t.Fatalf("firing 1 delay = %v", d)
	}
	if d := delay(1); d != 0 {
		t.Fatalf("firing 2 delay = %v", d)
	}
	for i := 0; i < 3; i++ {
		if d := delay(1); d != 3*time.Millisecond {
			t.Fatalf("post-activation delay = %v", d)
		}
	}
	// Activation is logged once, not per firing.
	if log.Count() != 1 {
		t.Fatalf("log count = %d: %v", log.Count(), log.Events())
	}
	if ev := log.Events()[0]; ev.Node != 1 || ev.Kind != "latency" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestStageDelayStallOnce(t *testing.T) {
	log := NewLog()
	delay, err := stageDelay(t, "stall-write:node=0:after=1:dur=5ms", 2, log)
	if err != nil {
		t.Fatal(err)
	}
	if d := delay(0); d != 0 {
		t.Fatalf("pre-activation delay = %v", d)
	}
	if d := delay(0); d != 5*time.Millisecond {
		t.Fatalf("stall delay = %v", d)
	}
	for i := 0; i < 3; i++ {
		if d := delay(0); d != 0 {
			t.Fatalf("stall fired twice: %v", d)
		}
	}
	if log.Count() != 1 {
		t.Fatalf("log count = %d", log.Count())
	}
}
