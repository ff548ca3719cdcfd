package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readTrace parses a Chrome trace-event JSON file and returns the decoded
// events, failing the test on malformed output.
func readTrace(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v\n%s", err, data)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	return trace.TraceEvents
}

// hasCategory reports whether any exported event carries the category.
func hasCategory(events []map[string]any, cat string) bool {
	for _, e := range events {
		if e["cat"] == cat {
			return true
		}
	}
	return false
}

func TestRunHardPlatform(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "hard", "-size", "small", "-kernels", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"TRAPEZ 2^19 on hard", "speedup:", "verify:     ok", "tsu:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSoftWithTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "soft", "-size", "small",
		"-kernels", "2", "-reps", "1", "-trace-out", tracePath, "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	events := readTrace(t, tracePath)
	for _, cat := range []string{"thread", "dispatch", "tsu", "tub"} {
		if !hasCategory(events, cat) {
			t.Fatalf("soft trace missing %q events", cat)
		}
	}
	s := out.String()
	for _, want := range []string{"-- metrics --", "rts.dispatched", "tsu.decrements", "tub.pushes",
		"-- lanes --", "utilization", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunHardWithTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "hard", "-size", "small",
		"-kernels", "2", "-trace-out", tracePath, "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	events := readTrace(t, tracePath)
	for _, cat := range []string{"thread", "tsu", "stall"} {
		if !hasCategory(events, cat) {
			t.Fatalf("hard trace missing %q events", cat)
		}
	}
	if !strings.Contains(out.String(), "hard.cycles") {
		t.Fatalf("metrics missing hard.cycles:\n%s", out.String())
	}
}

func TestRunCellWithTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-platform", "cell", "-size", "small",
		"-kernels", "2", "-reps", "1", "-trace-out", tracePath, "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	events := readTrace(t, tracePath)
	for _, cat := range []string{"thread", "dma", "tsu"} {
		if !hasCategory(events, cat) {
			t.Fatalf("cell trace missing %q events", cat)
		}
	}
	if !strings.Contains(out.String(), "cell.dma_bytes_in") {
		t.Fatalf("metrics missing cell.dma_bytes_in:\n%s", out.String())
	}
}

func TestRunDistPlatform(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "dist", "-size", "small",
		"-kernels", "4", "-nodes", "2", "-reps", "1", "-trace-out", tracePath, "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	events := readTrace(t, tracePath)
	for _, cat := range []string{"rpc", "tsu"} {
		if !hasCategory(events, cat) {
			t.Fatalf("dist trace missing %q events", cat)
		}
	}
	s := out.String()
	for _, want := range []string{"dist:", "dist.messages", "dist.rpc_ns", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunDistFaults drives the chaos demo: sever one of four nodes
// mid-run, expect the run to fail over, still verify, and report the
// fired faults. The tight batch/window keeps the run from coalescing
// into one frame per node, so the sever lands mid-run.
func TestRunDistFaults(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-platform", "dist", "-size", "small",
		"-kernels", "8", "-nodes", "4", "-reps", "1",
		"-dist-window", "1", "-dist-batch", "1",
		"-dist-faults", "seed=7,plan=sever:node=1:after=1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"chaos:", "sever", "failover:", "node 1 lost", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunDistFaultsDocumentedRecipe runs the chaos command line of the
// package comment as written (default size, unroll and reps). It used to
// panic the coordinator in Fleet.drainDeferred: node 2's mid-frame sever
// lands on a flush made from inside the drain.
func TestRunDistFaultsDocumentedRecipe(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-platform", "dist", "-nodes", "4", "-kernels", "8",
		"-dist-window", "1", "-dist-batch", "1",
		"-dist-faults", "seed=7,plan=sever:node=1:after=1;sever:node=2:after=2:midframe=true"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"2 fault(s) fired", "node 1 lost", "node 2 lost", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunDistFaultsBadSpec pins the flag's error path: an unknown kind,
// and "refuse", which used to parse and then fire nothing.
func TestRunDistFaultsBadSpec(t *testing.T) {
	for _, plan := range []string{"plan=meteor-strike", "seed=3,plan=refuse:node=1"} {
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "TRAPEZ", "-platform", "dist", "-reps", "1",
			"-dist-faults", plan}, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), "unknown fault kind") {
			t.Fatalf("%s: exit %d, stderr: %s", plan, code, errb.String())
		}
	}
}

func TestRunDOTExport(t *testing.T) {
	dir := t.TempDir()
	dotPath := filepath.Join(dir, "g.dot")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "QSORT", "-platform", "soft", "-dot", dotPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") || !strings.Contains(string(data), "gather") {
		t.Fatalf("dot content:\n%s", data)
	}
}

func TestRunVirtualPlatform(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-platform", "virtual", "-size", "small",
		"-kernels", "3", "-unroll", "16", "-reps", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "verify:     ok") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunCellPlatform(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "QSORT", "-platform", "cell", "-size", "small",
		"-kernels", "2", "-unroll", "64", "-reps", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "QSORT 3K on cell") {
		t.Fatalf("cell sizes not applied:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-bench", "NOPE"}, 1},
		{[]string{"-size", "gigantic"}, 1},
		{[]string{"-platform", "quantum"}, 1},
		{[]string{"-bench", "FFT", "-platform", "cell"}, 1}, // FFT not in Figure 7
		{[]string{"-notaflag"}, 2},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code {
			t.Fatalf("args %v: exit %d, want %d (stderr: %s)", c.args, code, c.code, errb.String())
		}
	}
}

// TestRunVetFlag pins the pre-dispatch verifier: a clean benchmark runs
// with a "vet: ok" line in the report.
func TestRunVetFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "soft", "-size", "small",
		"-kernels", "2", "-reps", "1", "-vet"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "vet:        ok") || !strings.Contains(s, "verify:     ok") {
		t.Fatalf("output:\n%s", s)
	}
}

// TestRunStreamMode drives the streaming entry point: a rated run with
// chaos and metrics, reporting throughput and tail latency and verifying
// the checksum against the sequential reference.
func TestRunStreamMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-stream-events", "4000", "-stream-rate", "40000",
		"-stream-window", "16", "-stream-slots", "4", "-kernels", "4",
		"-stream-faults", "stall-write:node=1:after=500:dur=5ms", "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"streaming EVENTFILTER", "offered:    40000 ev/s",
		"achieved:", "latency:    p50", "chaos:      1 fault(s)", "stall-write",
		"-- metrics --", "stream.injected", "stream.event_latency_ns", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunStreamShedPolicy pins that an overloaded shed run reports the
// dropped windows and skips checksum verification.
func TestRunStreamShedPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-stream-events", "2000", "-stream-window", "16",
		"-stream-slots", "1", "-stream-policy", "shed", "-kernels", "1",
		"-stream-faults", "latency:node=2:after=1:dur=2ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "shed:") {
		t.Fatalf("no shed line:\n%s", s)
	}
	if !strings.Contains(s, "window(s)") {
		t.Fatalf("shed line should count windows:\n%s", s)
	}
	if strings.Contains(s, "verify:     ok") && !strings.Contains(s, "skipped") {
		// Nothing shed is legal under light load; a shed count must then be 0.
		if !strings.Contains(s, "shed:       0 event(s)") {
			t.Fatalf("verified run claims sheds:\n%s", s)
		}
	}
}

// TestRunStreamErrors pins the streaming flag validation.
func TestRunStreamErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-stream-rate", "100"}, "requires streaming mode"},
		{[]string{"-stream-events", "10", "-bench", "MMULT"}, "does not apply to streaming mode"},
		{[]string{"-stream-events", "10", "-platform", "hard"}, "does not apply to streaming mode"},
		{[]string{"-stream-events", "10", "-stream-policy", "drop"}, "unknown backpressure policy"},
		{[]string{"-stream-events", "10", "-stream-faults", "sever:node=0:after=1"}, "sever"},
		{[]string{"-stream-events", "10", "-stream-window", "7"}, "multiple of"},
		{[]string{"-connect", "127.0.0.1:1", "-stream-events", "10"}, "incompatible with -connect"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 1 {
			t.Fatalf("args %v: exit %d, want 1 (stderr: %s)", c.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Fatalf("args %v: stderr missing %q: %s", c.args, c.want, errb.String())
		}
	}
}

func TestRunGanttFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "soft", "-size", "small",
		"-kernels", "2", "-reps", "1", "-unroll", "64", "-gantt"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "k0 ") || !strings.Contains(s, "span ") {
		t.Fatalf("no gantt chart in output:\n%s", s)
	}
}

// TestRunStreamVetGate drives the streaming vet gate: -vet in stream
// mode lints the pipeline across window generations before dispatching
// a single event, and reports the clean verdict alongside the run.
func TestRunStreamVetGate(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-stream-events", "1000", "-stream-window", "16",
		"-stream-slots", "2", "-kernels", "2", "-vet"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"vet:        ok", "verify:     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsFlagsThePlatformCannotHonour pins the platform columns of
// the scope table: a flag on a platform that has nothing to apply it to is
// refused with one message shape, never dropped (-gantt off the soft
// platform used to be, and so were -nodes and the -dist-* family off
// dist, and -trace-out and -metrics on virtual).
func TestRunRejectsFlagsThePlatformCannotHonour(t *testing.T) {
	offDist := []string{"soft", "hard", "cell", "virtual"}
	trace := filepath.Join(t.TempDir(), "t.json")
	forbidden := []struct {
		flag      []string
		platforms []string
	}{
		{[]string{"-tsu-shards", "2"}, []string{"hard", "cell", "dist", "virtual"}},
		{[]string{"-gantt"}, []string{"hard", "cell", "dist", "virtual"}},
		{[]string{"-nodes", "5"}, offDist},
		{[]string{"-dist-batch", "4"}, offDist},
		{[]string{"-dist-batch-bytes", "4096"}, offDist},
		{[]string{"-dist-window", "2"}, offDist},
		{[]string{"-dist-no-cache"}, offDist},
		{[]string{"-dist-faults", "seed=1,plan=sever:node=1:after=1"}, offDist},
		{[]string{"-trace-out", trace}, []string{"virtual"}},
		{[]string{"-metrics"}, []string{"virtual"}},
	}
	refused := func(args []string, want string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout: %s)", args, code, out.String())
		}
		if !strings.Contains(errb.String(), want) {
			t.Errorf("%v: stderr %q, want %q", args, errb.String(), want)
		}
	}
	pairs := 0
	for _, f := range forbidden {
		for _, platform := range f.platforms {
			pairs++
			args := append([]string{"-bench", "TRAPEZ", "-platform", platform, "-reps", "1"}, f.flag...)
			refused(args, f.flag[0]+" is not supported on the "+platform+" platform")
		}
	}
	// The list above is written out, not derived, so a new platform or a
	// new row that some platforms refuse has to be decided here too. Rows
	// no platform accepts (-tenant, -stream-rate, ...) are refused in
	// other words (TestRunStreamErrors, TestRunConnectIncompatibleFlags).
	inTable := 0
	for _, row := range scope {
		for bit := onSoft; bit&onBatch != 0; bit <<= 1 {
			if row.runs&onBatch != 0 && row.runs&bit == 0 {
				inTable++
			}
		}
	}
	if inTable != pairs {
		t.Fatalf("scope table refuses %d (flag, platform) pairs, this test covers %d", inTable, pairs)
	}

	// The command line that used to exit 0 having injected nothing.
	refused([]string{"-platform", "soft", "-dist-faults", "seed=1,plan=sever:node=1:after=1",
		"-dist-batch", "4", "-dist-no-cache", "-nodes", "5"}, "-nodes is not supported on the soft platform")
	// On dist the values are checked instead: the header, job.Build and the
	// worker replicas all see the one -kernels total, so it has to divide
	// among the nodes (8 over 3 used to print "8 kernels" and run 3 × 2).
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "0"}, "-nodes must be at least 1"},
		{[]string{"-nodes", "-2"}, "-nodes must be at least 1"},
		{[]string{"-nodes", "3", "-kernels", "8"}, "-kernels 8 is not a positive multiple of -nodes 3"},
		{[]string{"-nodes", "3", "-kernels", "8"}, "6 and 9"},
		{[]string{"-nodes", "3", "-kernels", "2"}, "3 and 6"},
		{[]string{"-nodes", "2", "-kernels", "0"}, "2 and 4"},
	} {
		refused(append([]string{"-bench", "TRAPEZ", "-platform", "dist", "-reps", "1"}, c.args...), c.want)
	}
}

// TestRunRefusesOutOfRangeCounts: a count below its range is refused on
// every run that takes the flag. Each of these used to exit 0 with the
// header printing the value while the run clamped it: "-3 kernels" (or
// "-3 workers") over one kernel or six SPEs, "unroll 0" over unroll 1, and
// -tsu-shards -2 on the single plane.
func TestRunRefusesOutOfRangeCounts(t *testing.T) {
	batch := func(platforms ...string) [][]string {
		var runs [][]string
		for _, p := range platforms {
			runs = append(runs, []string{"-bench", "TRAPEZ", "-platform", p, "-reps", "1"})
		}
		return runs
	}
	connect := []string{"-connect", "127.0.0.1:1"}
	stream := []string{"-stream-events", "100"}
	for _, c := range []struct {
		flag string
		vals []string
		min  string
		runs [][]string // every run that takes the flag
	}{
		{"-kernels", []string{"0", "-3"}, "1", append(batch("soft", "hard", "cell", "virtual"), connect, stream)},
		{"-unroll", []string{"0", "-2"}, "1", append(batch("soft", "hard", "cell", "dist", "virtual"), connect)},
		{"-tsu-shards", []string{"-2"}, "0", batch("soft")},
	} {
		for _, prefix := range c.runs {
			for _, v := range c.vals {
				args := append(append([]string(nil), prefix...), c.flag, v)
				var out, errb bytes.Buffer
				if code := run(args, &out, &errb); code != 1 {
					t.Errorf("%v: exit %d, want 1 (stdout: %s)", args, code, out.String())
				}
				if want := c.flag + " must be at least " + c.min + ", not " + v; !strings.Contains(errb.String(), want) {
					t.Errorf("%v: stderr %q, want %q", args, errb.String(), want)
				}
			}
		}
	}
}

// TestRunStreamRefusesBatchTuning pins the streaming column of the scope
// table: flags that tune a batch run are refused in streaming mode, where
// each of these used to be dropped and the run still printed "verify: ok".
func TestRunStreamRefusesBatchTuning(t *testing.T) {
	for _, flag := range [][]string{
		{"-tsu-shards", "4"}, {"-reps", "2"},
		{"-dist-window", "2"}, {"-dist-no-cache"}, {"-dist-faults", "seed=1,plan=sever:node=1:after=1"},
		{"-dist-batch", "4"}, {"-dist-batch-bytes", "4096"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-stream-events", "2000"}, flag...)
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout: %s)", args, code, out.String())
		}
		if want := flag[0] + " does not apply to streaming mode"; !strings.Contains(errb.String(), want) {
			t.Errorf("%v: stderr %q, want %q", args, errb.String(), want)
		}
	}
}

// TestScopeCoversEveryFlag pins the scope table against the flag set: every
// flag -h lists has a row, so a new flag must have its runs decided, and
// every row names a flag, so a deleted one cannot linger in the table (the
// old -connect list still named -trace after it was removed).
func TestScopeCoversEveryFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h: exit %d", code)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(errb.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags[strings.Fields(name)[0]] = true
		}
	}
	rows := map[string]bool{}
	for _, row := range scope {
		if rows[row.flag] {
			t.Errorf("-%s has two rows", row.flag)
		}
		rows[row.flag] = true
		if !flags[row.flag] {
			t.Errorf("scope row -%s names no flag", row.flag)
		}
	}
	for name := range flags {
		if !rows[name] {
			t.Errorf("-%s has no scope row", name)
		}
	}
}

// TestRunShardedPlane runs a suite benchmark end to end on the sharded
// plane: the run must verify and report its shards.
func TestRunShardedPlane(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "TRAPEZ", "-platform", "soft", "-tsu-shards", "2", "-reps", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"tsu:        2 shards", "verify:     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunUnknownSize(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-size", "huge"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := `unknown size "huge" (want small, medium or large)`; !strings.Contains(errb.String(), want) {
		t.Fatalf("stderr %q, want %q", errb.String(), want)
	}
}
