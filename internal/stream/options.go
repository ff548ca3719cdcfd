package stream

import (
	"fmt"
	"math"
	"time"

	"tflux/internal/obs"
)

// Policy selects the backpressure behaviour when every window slot is
// occupied at admission time.
type Policy int

const (
	// Block stalls injection until a slot frees. Memory stays bounded;
	// under overload the admission latency absorbs the excess rate.
	Block Policy = iota
	// Shed drops whole windows while no slot is free. Memory and
	// latency stay bounded; throughput reports what was actually
	// admitted. Shedding is all-or-nothing per window because a
	// partially admitted window could never complete its firing
	// closure, pinning its SM slot forever.
	Shed
)

// String names the policy as accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "shed":
		return Shed, nil
	}
	return Block, fmt.Errorf("stream: unknown backpressure policy %q (want block or shed)", s)
}

// Options configures a streaming run.
type Options struct {
	// Slots caps concurrently live windows (the recycled SM slot count).
	// 0 means DefaultSlots.
	Slots int
	// Policy is the backpressure behaviour at slot exhaustion.
	Policy Policy
	// Workers is the firing-worker count; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives sustained-rate instruments under stream.* names;
	// nil disables external export (stats are still computed).
	Metrics *obs.Registry
	// Delay, when non-nil, is asked before every instance firing how long
	// to stall that firing of the given stage — the fault-injection hook
	// (chaos.Plan.StageDelay builds one; the caller owns its log).
	Delay func(stage int) time.Duration
}

// DefaultSlots is the window-slot budget when Options.Slots is zero.
const DefaultSlots = 4

// WorkCapacity is the single source of truth for the streaming run
// loop's no-deadlock argument: the work channel must hold every
// dispatched-but-unfired instance, and the worst case is all live
// windows fully pending — slots·perWindow — plus one in-flight
// self-push per worker. rts.RunStream allocates exactly this capacity
// and ddmlint's budget check re-derives it; ok=false means the product
// overflows (or an operand is non-positive) and the argument is void.
func WorkCapacity(slots, perWindow, workers int64) (capacity int64, ok bool) {
	if slots <= 0 || perWindow <= 0 || workers <= 0 {
		return 0, false
	}
	if perWindow > (math.MaxInt64-workers)/slots {
		return 0, false
	}
	return slots*perWindow + workers, true
}

// Stats summarises a streaming run.
type Stats struct {
	Events      int64 // events admitted and processed to retirement
	Padded      int64 // pad instances in the final partial window
	ShedEvents  int64 // events dropped by the Shed policy
	ShedWindows int64 // whole windows dropped by the Shed policy
	Windows     int64 // windows retired
	Fired       int64 // total instances fired across all windows

	OfferedEPS  float64 // configured injection rate (0 = unbounded)
	AchievedEPS float64 // admitted events / elapsed

	// Admission-to-retire latency quantiles over admitted events (pads
	// excluded), each within 1/32 of a measured sample (obs.Histogram).
	P50, P95, P99 time.Duration

	Elapsed     time.Duration
	MaxInFlight int64 // high-water mark of live windows
}
