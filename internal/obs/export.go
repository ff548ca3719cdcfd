package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (also read by Perfetto). Field order is fixed by the struct so the
// export is byte-stable for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeName labels one event for the trace viewer.
func chromeName(e Event) string {
	switch e.Kind {
	case ThreadComplete, ThreadDispatch:
		if e.Note != "" {
			return e.Note
		}
		return e.Inst.String()
	case DMATransfer:
		return "dma " + e.Note
	default:
		if e.Note != "" {
			return e.Kind.String() + " " + e.Note
		}
		return e.Kind.String()
	}
}

// WriteChromeTrace exports events as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each execution lane
// becomes one named track (tid); events with a duration are rendered as
// complete ("X") slices, instantaneous ones as instant ("i") marks.
// Events are exported in SortEvents order, so the output is
// deterministic for a given event set.
func WriteChromeTrace(w io.Writer, events []Event) error {
	events = append([]Event(nil), events...)
	SortEvents(events)

	lanes := map[int]bool{}
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for _, e := range events {
		lanes[e.Lane] = true
		ce := chromeEvent{
			Name: chromeName(e),
			Cat:  e.Kind.String(),
			TS:   usec(e.Start),
			PID:  0,
			TID:  e.Lane,
		}
		args := map[string]any{}
		if e.Kind == ThreadComplete || e.Kind == ThreadDispatch {
			args["instance"] = e.Inst.String()
			if e.Service {
				args["service"] = true
			}
		}
		if e.Bytes != 0 {
			args["bytes"] = e.Bytes
		}
		if len(args) > 0 {
			ce.Args = args
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = usec(e.Dur)
		} else {
			ce.Ph = "i"
			ce.Args = mergeScope(ce.Args)
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	// Name each lane so the viewer shows "lane 0", "lane 1", ... instead
	// of bare thread ids. Metadata events go first, in lane order.
	var meta []chromeEvent
	for lane := range lanes {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: lane,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane)},
		})
	}
	sortMeta(meta)
	out.TraceEvents = append(meta, out.TraceEvents...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// mergeScope tags instant events with thread scope (required by some
// viewers to render the mark).
func mergeScope(args map[string]any) map[string]any {
	if args == nil {
		args = map[string]any{}
	}
	args["s"] = "t"
	return args
}

func sortMeta(meta []chromeEvent) {
	for i := 1; i < len(meta); i++ {
		for j := i; j > 0 && meta[j].TID < meta[j-1].TID; j-- {
			meta[j], meta[j-1] = meta[j-1], meta[j]
		}
	}
}

// Utilization returns, per lane in [0, lanes), the fraction of the
// event span covered by ThreadComplete durations — the load-balance
// number the paper's per-kernel analysis rests on.
func Utilization(events []Event, lanes int) []float64 {
	out := make([]float64, lanes)
	var span time.Duration
	busy := make([]time.Duration, lanes)
	for _, e := range events {
		if e.End() > span {
			span = e.End()
		}
		if e.Kind == ThreadComplete && e.Lane >= 0 && e.Lane < lanes {
			busy[e.Lane] += e.Dur
		}
	}
	if span == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(busy[i]) / float64(span)
	}
	return out
}

// WriteSummary renders a human-readable run summary from an event set:
// per-lane utilization and thread counts, then per-kind event totals
// with byte traffic where applicable. lanes is the number of compute
// lanes (kernels/SPEs/cores); events on higher lanes (the TSU /
// coordinator lane) are summarized under "tsu".
func WriteSummary(w io.Writer, events []Event, lanes int) error {
	util := Utilization(events, lanes)
	type laneAgg struct {
		threads, service int64
		busy             time.Duration
	}
	perLane := make([]laneAgg, lanes)
	var kindCount [numKinds]int64
	var kindBytes [numKinds]int64
	var kindDur [numKinds]time.Duration
	for _, e := range events {
		kindCount[e.Kind]++
		kindBytes[e.Kind] += e.Bytes
		kindDur[e.Kind] += e.Dur
		if e.Kind == ThreadComplete && e.Lane >= 0 && e.Lane < lanes {
			if e.Service {
				perLane[e.Lane].service++
			} else {
				perLane[e.Lane].threads++
			}
			perLane[e.Lane].busy += e.Dur
		}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "lane\tthreads\tservice\tbusy\tutilization")
	for i := range perLane {
		fmt.Fprintf(tw, "k%d\t%d\t%d\t%s\t%.1f%%\n",
			i, perLane[i].threads, perLane[i].service, perLane[i].busy, 100*util[i])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "event\tcount\ttotal\tbytes")
	for k := Kind(0); k < numKinds; k++ {
		if kindCount[k] == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\n", k, kindCount[k], kindDur[k], kindBytes[k])
	}
	return tw.Flush()
}

// WriteGantt renders the ThreadComplete events as an ASCII chart, one row
// per lane in [0, lanes), time flowing left to right across width columns.
// Application DThreads fill their span with '#', Inlet/Outlet service
// threads with 's'; '.' is idle time. Useful for eyeballing load balance
// and serial bottlenecks:
//
//	k0 |####..####################ss|
//	k1 |..########..................|
func WriteGantt(w io.Writer, events []Event, lanes, width int) error {
	if width < 10 {
		width = 10
	}
	var span time.Duration
	var threads int
	for _, e := range events {
		if e.Kind != ThreadComplete {
			continue
		}
		threads++
		if e.End() > span {
			span = e.End()
		}
	}
	if span == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	col := func(d time.Duration) int {
		c := int(int64(d) * int64(width) / int64(span))
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, lanes)
	for k := range rows {
		rows[k] = bytes.Repeat([]byte{'.'}, width)
	}
	for _, e := range events {
		if e.Kind != ThreadComplete || e.Lane < 0 || e.Lane >= lanes {
			continue
		}
		mark := byte('#')
		if e.Service {
			mark = 's'
		}
		for c := col(e.Start); c <= col(e.End()); c++ {
			rows[e.Lane][c] = mark
		}
	}
	for k, row := range rows {
		if _, err := fmt.Fprintf(w, "k%-2d |%s|\n", k, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "span %s, %d events ('#' app, 's' inlet/outlet, '.' idle)\n", span, threads)
	return err
}
