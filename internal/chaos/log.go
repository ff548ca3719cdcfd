package chaos

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event records one fired fault. Frame is the connection's frame count
// (write frames for write-side faults, read frames for StallRead) at the
// moment the fault fired; Seq is the per-connection firing order. Events
// deliberately carry no wall-clock timestamp: two runs with the same Plan
// and seed produce identical Events.
type Event struct {
	Node   int    // connection index the fault fired on
	Seq    int    // firing order within the connection
	Kind   string // fault kind name ("sever", "latency", ...)
	Frame  int64  // frame count at firing time
	Detail string // rule parameters, e.g. "dur=1ms jitter=500µs"
}

// Log collects fired-fault events from every connection of a Plan. It is
// safe for concurrent use; a nil *Log discards everything.
type Log struct {
	mu     sync.Mutex
	seq    map[int]int
	events []Event
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{seq: make(map[int]int)} }

// add appends one fired fault for the given connection (or pipeline
// stage). Nil-receiver-safe.
func (l *Log) add(node int, kind string, frame int64, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{Node: node, Seq: l.seq[node], Kind: kind, Frame: frame, Detail: detail})
	l.seq[node]++
}

// Events returns the fired faults sorted by (Node, Seq) — a deterministic
// order regardless of how goroutines interleaved at runtime.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Count returns the number of fired faults.
func (l *Log) Count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Report writes what a drill fired, in the words of the command that ran
// it: header is a printf format for the number of faults, and where one
// for a fault's (Node, Frame) position, which opens its line. A nil log
// — no drill was asked for — writes nothing.
func (l *Log) Report(w io.Writer, header, where string) {
	if l == nil {
		return
	}
	fmt.Fprintf(w, header, l.Count())
	for _, ev := range l.Events() {
		fmt.Fprintf(w, where+": %s %s\n", ev.Node, ev.Frame, ev.Kind, ev.Detail)
	}
}
