package workload

import (
	"fmt"

	"tflux/internal/core"
	"tflux/internal/stream"
)

// StreamSpec describes one built-in streaming workload, the streaming
// analogue of Spec: enough to build a fresh pipeline for verification
// (cmd/tfluxvet -stream) or execution.
type StreamSpec struct {
	Name        string
	Description string
	// Policies are the backpressure policies the workload supports; the
	// streaming verifier lints the pipeline under each (a workload whose
	// accumulators are not shed-tolerant lists only stream.Block).
	Policies []stream.Policy
	// Make builds fresh workload state for windows of w events over
	// stream.DefaultSlots slots and returns its pipeline. Zero w selects
	// the workload's default window.
	Make func(w core.Context) (*stream.Pipeline, error)
}

// EventFilterSpec is the EVENTFILTER benchmark's streaming spec.
func EventFilterSpec() StreamSpec {
	return StreamSpec{
		Name:        "eventfilter",
		Description: "three-stage event filter (decode → filter → aggregate), checksum-verified",
		Policies:    []stream.Policy{stream.Block, stream.Shed},
		Make: func(w core.Context) (*stream.Pipeline, error) {
			if w == 0 {
				w = 64
			}
			e, err := NewEventFilter(w, stream.DefaultSlots, 1)
			if err != nil {
				return nil, err
			}
			return e.Pipeline(), nil
		},
	}
}

// StreamSuite returns every built-in streaming workload.
func StreamSuite() []StreamSpec {
	return []StreamSpec{EventFilterSpec()}
}

// StreamByName returns the streaming workload with the given name.
func StreamByName(name string) (StreamSpec, error) {
	for _, s := range StreamSuite() {
		if s.Name == name {
			return s, nil
		}
	}
	return StreamSpec{}, fmt.Errorf("workload: unknown streaming workload %q", name)
}
