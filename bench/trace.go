package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the trace epoch; Parent is the ID of the span that
// was open on the same client when this one began (-1 for an op's root);
// every span of one op carries that op's ID.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Client int    `json:"client"`
}

// tracer records the spans and per-layer samples of one closed-loop
// client. It is not safe for concurrent use: every client owns one, and
// they are merged after the run. A nil *tracer is the tracing-off state;
// every method is a no-op on it, so op code is written once.
type tracer struct {
	epoch   time.Time
	client  int
	op      int64
	open    []int // indices into spans of the currently open spans
	spans   []span
	samples map[string][]float64
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: client, samples: make(map[string][]float64)}
}

// beginOp sets the op ID stamped on the spans that follow.
func (t *tracer) beginOp(id int64) {
	if t != nil {
		t.op = id
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Client: t.client, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned and reports its duration. Spans close
// in LIFO order; anything else is a bug in the benchmark.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %d closed out of order", i))
	}
	t.open = t.open[:n-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// sample records one observation of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// mergeTraces renumbers every client's spans into one list with unique
// IDs (parents rewritten to match) and pools the samples.
func mergeTraces(ts []*tracer) ([]span, map[string][]float64) {
	var spans []span
	samples := make(map[string][]float64)
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := len(spans)
		for i, s := range t.spans {
			s.ID = base + i
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		for name, vs := range t.samples {
			samples[name] = append(samples[name], vs...)
		}
	}
	return spans, samples
}

// selfTimes returns each span's duration minus the time its direct
// children cover, indexed by span ID. Children of one parent come from one
// client's sequential calls, so they never overlap each other.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
