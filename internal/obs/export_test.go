package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tflux/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedEvents is a deterministic event set touching every kind, used by
// the golden and round-trip tests.
func fixedEvents() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		{Kind: ThreadDispatch, Lane: 0, Inst: core.Instance{Thread: 1, Ctx: 0}, Start: ms(0)},
		{Kind: ThreadComplete, Lane: 0, Inst: core.Instance{Thread: 1, Ctx: 0}, Start: ms(1), Dur: ms(3)},
		{Kind: ThreadComplete, Lane: 1, Inst: core.Instance{Thread: 1, Ctx: 1}, Start: ms(1), Dur: ms(2)},
		{Kind: ThreadComplete, Lane: 0, Inst: core.Instance{Thread: 9, Ctx: 0}, Start: ms(5), Dur: ms(1), Service: true},
		{Kind: TUBDeposit, Lane: 1, Inst: core.Instance{Thread: 1, Ctx: 1}, Start: ms(3)},
		{Kind: TSUCommand, Lane: 2, Start: ms(4), Dur: ms(1)},
		{Kind: DMATransfer, Lane: 1, Start: ms(2), Dur: ms(1), Bytes: 16384, Note: "in"},
		{Kind: DistRPC, Lane: 0, Inst: core.Instance{Thread: 1, Ctx: 0}, Start: ms(0), Dur: ms(4), Bytes: 512},
		{Kind: CacheStall, Lane: 1, Start: ms(6), Dur: ms(2)},
	}
}

// TestChromeTraceGolden pins the exact exporter output. Regenerate with
// `go test ./internal/obs -run ChromeTraceGolden -update` after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Determinism: exporting a shuffled copy yields identical bytes.
	ev := fixedEvents()
	for i, j := 0, len(ev)-1; i < j; i, j = i+1, j-1 {
		ev[i], ev[j] = ev[j], ev[i]
	}
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, ev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export is order-sensitive: shuffled input produced different bytes")
	}
}

// TestChromeTraceRoundTrip validates the JSON structurally: it must
// parse, every duration event must be a complete slice with µs fields,
// and the lane metadata must name every tid in use.
func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	named := map[int]bool{}
	used := map[int]bool{}
	var slices, instants int
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[e.TID] = true
			}
		case "X":
			slices++
			used[e.TID] = true
			if e.Dur <= 0 {
				t.Fatalf("complete event %q has dur %v", e.Name, e.Dur)
			}
		case "i":
			instants++
			used[e.TID] = true
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if slices != 7 || instants != 2 {
		t.Fatalf("slices/instants = %d/%d, want 7/2", slices, instants)
	}
	for tid := range used {
		if !named[tid] {
			t.Fatalf("lane %d has events but no thread_name metadata", tid)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	var sb strings.Builder
	if err := WriteSummary(&sb, fixedEvents(), 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"lane", "utilization", "k0", "k1", "thread", "dma", "rpc", "16384"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteGantt(t *testing.T) {
	var sb strings.Builder
	if err := WriteGantt(&sb, fixedEvents(), 2, 10); err != nil {
		t.Fatal(err)
	}
	// Lane 0 runs an app thread over 1–4 ms and a service thread over
	// 5–6 ms of the 6 ms span; lane 1 an app thread over 1–3 ms. Events of
	// other kinds leave no mark.
	want := "k0  |.######.ss|\n" +
		"k1  |.#####....|\n" +
		"span 6ms, 3 events ('#' app, 's' inlet/outlet, '.' idle)\n"
	if sb.String() != want {
		t.Fatalf("gantt:\n%s\nwant:\n%s", sb.String(), want)
	}
	// No thread executions: the placeholder, not an empty chart.
	sb.Reset()
	if err := WriteGantt(&sb, []Event{{Kind: TSUCommand, Dur: time.Millisecond}}, 1, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events") {
		t.Fatalf("empty gantt: %q", sb.String())
	}
}
