package obs

import (
	"time"

	"tflux/internal/core"
)

// Kind classifies an Event. The kinds cover the activity every TFlux
// platform shares: DThread scheduling, TSU command processing, TUB
// traffic, Cell DMA staging, distributed RPCs and failovers, and memory
// stalls.
type Kind uint8

// The event kinds.
const (
	// ThreadDispatch marks the instant the TSU hands a ready DThread to
	// its owning execution lane (zero duration).
	ThreadDispatch Kind = iota
	// ThreadComplete spans one DThread body execution on a lane.
	ThreadComplete
	// TSUCommand spans the TSU (emulator goroutine, PPE loop, hardware
	// device or coordinator) processing one completion command.
	TSUCommand
	// TUBDeposit marks a Kernel depositing a completion record into the
	// Thread-to-Update Buffer.
	TUBDeposit
	// DMATransfer spans one Local Store staging operation on the Cell
	// substrate; Bytes carries the traffic.
	DMATransfer
	// DistRPC spans one coordinator→worker Exec round trip on TFluxDist;
	// Bytes carries the import+export payload.
	DistRPC
	// CacheStall spans the memory-hierarchy cycles of one DThread on
	// TFluxHard (the non-compute part of its execution).
	CacheStall
	// DistFailover marks the instant the TFluxDist coordinator declares
	// a worker node dead and drains its leases; Note carries the
	// detection reason.
	DistFailover
	// ServeAdmit marks a tfluxd daemon admitting one program submission;
	// Note carries "tenant/name".
	ServeAdmit
	// ServeReject marks a declined submission; Note carries the reason.
	ServeReject
	// ServeResult spans one admitted program from submission to result
	// delivery (the admission-to-completion latency); Note carries
	// "tenant/name".
	ServeResult

	numKinds
)

// String names the kind as it appears in traces and summaries.
func (k Kind) String() string {
	switch k {
	case ThreadDispatch:
		return "dispatch"
	case ThreadComplete:
		return "thread"
	case TSUCommand:
		return "tsu"
	case TUBDeposit:
		return "tub"
	case DMATransfer:
		return "dma"
	case DistRPC:
		return "rpc"
	case CacheStall:
		return "stall"
	case DistFailover:
		return "failover"
	case ServeAdmit:
		return "admit"
	case ServeReject:
		return "reject"
	case ServeResult:
		return "result"
	}
	return "unknown"
}

// Event is one observed occurrence. Lane is the execution lane the event
// belongs to — a Kernel, SPE, simulated core or worker node index; by
// convention platforms place their TSU/coordinator on the lane one past
// the last compute lane. Start is relative to the sink's Begin; on the
// simulated platforms it is the cycle count mapped through a fixed cycle
// period, so hard and soft traces share a time axis.
type Event struct {
	Kind    Kind
	Lane    int
	Inst    core.Instance
	Start   time.Duration
	Dur     time.Duration
	Service bool   // Inlet/Outlet rather than application thread
	Bytes   int64  // payload for DMATransfer / DistRPC
	Note    string // optional detail ("in", "out", "blocked", ...)
}

// End returns the event's end time.
func (e Event) End() time.Duration { return e.Start + e.Dur }

// Sink receives events from a run. Begin resets the sink and marks the
// run's time origin; Now returns the time elapsed since Begin, which
// wall-clock producers use to stamp Event.Start. Record must be safe for
// concurrent use.
type Sink interface {
	Begin()
	Record(Event)
	Now() time.Duration
}

// Nop is a sink that discards everything: the zero-cost "disabled"
// implementation for call sites that want a non-nil sink.
type Nop struct{}

// Begin implements Sink.
func (Nop) Begin() {}

// Record implements Sink.
func (Nop) Record(Event) {}

// Now implements Sink.
func (Nop) Now() time.Duration { return 0 }
