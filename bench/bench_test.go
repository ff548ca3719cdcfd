package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

const manifestPath = "../BENCHMARK.json"

// checkSpans asserts the structural promises of a trace: children lie
// inside their parent and share its op and client, and a span's self time
// is its duration minus its children's.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	children := make([]int64, len(spans))
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op || s.Client != p.Client {
			t.Errorf("span %d (%s) has op %d client %d, its parent op %d client %d", i, s.Name, s.Op, s.Client, p.Op, p.Client)
		}
		children[s.Parent] += s.End - s.Start
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if want := s.End - s.Start - children[i]; self[i] != want || want < 0 {
			t.Errorf("span %d (%s): self time %d, want duration - children = %d ≥ 0", i, s.Name, self[i], want)
		}
	}
}

func loadTrace(t *testing.T, path string) traceFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s does not load as JSON: %v", path, err)
	}
	return tf
}

func TestTraceWriter(t *testing.T) {
	epoch := time.Now()
	ts := []*tracer{newTracer(epoch, 0), newTracer(epoch, 1)}
	for c, tr := range ts {
		for op := int64(0); op < 3; op++ {
			tr.beginOp(op*2 + int64(c))
			root := tr.begin("op")
			for _, name := range []string{"a", "b"} {
				sp := tr.begin(name)
				inner := tr.begin(name + "/inner")
				time.Sleep(50 * time.Microsecond)
				tr.end(inner)
				if d := tr.end(sp); d <= 0 {
					t.Fatalf("span %s took %v", name, d)
				}
			}
			tr.end(root)
			tr.sample("m", float64(op))
		}
	}
	spans, samples := mergeTraces(ts)
	if len(spans) != 2*3*5 || len(samples["m"]) != 6 {
		t.Fatalf("merged %d spans and %d samples, want 30 and 6", len(spans), len(samples["m"]))
	}
	checkSpans(t, spans)
	ops := make(map[int64]int)
	for _, s := range spans {
		ops[s.Op]++
	}
	for op, n := range ops {
		if n != 5 {
			t.Errorf("op %d has %d spans, want 5", op, n)
		}
	}

	path, err := writeTrace(t.TempDir(), "unit", 7, spans)
	if err != nil {
		t.Fatal(err)
	}
	tf := loadTrace(t, path)
	if tf.Workload != "unit" || tf.Seed != 7 || len(tf.Spans) != len(spans) {
		t.Fatalf("trace file holds workload %q seed %d and %d spans", tf.Workload, tf.Seed, len(tf.Spans))
	}
	checkSpans(t, tf.Spans)

	// The tracing-off state records nothing and must not panic.
	var off *tracer
	off.beginOp(1)
	off.sample("m", 1)
	if d := off.end(off.begin("x")); d != 0 {
		t.Errorf("nil tracer reported a %v span", d)
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := pyQuartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("pyQuartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	unimodal := sorted([]float64{5, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7})
	if r := halvesRatio(unimodal); r > 1.2 {
		t.Errorf("unimodal sample has halves ratio %v", r)
	}
	bimodal := sorted([]float64{2, 2.1, 2, 2.2, 6, 6.1, 6.3, 6})
	if r := halvesRatio(bimodal); r < 2 {
		t.Errorf("2 ms / 6 ms mix has halves ratio %v, want > 2", r)
	}
	// Two clients, 16 ops each, every op twice as long as the reference
	// run after it, whatever the host did to both: four batches of 2.
	ph := &phase{durs: make([][]float64, 2), refs: make([][]float64, 2)}
	for c := range ph.durs {
		for i := 0; i < 2*batchOps; i++ {
			slow := 1 + 0.3*float64((i+c)%5)
			ph.durs[c] = append(ph.durs[c], 2*slow)
			ph.refs[c] = append(ph.refs[c], slow)
		}
	}
	if rel := ph.opRel(); len(rel) != 4 || math.Abs(rel[0]-2) > 1e-9 || math.Abs(rel[3]-2) > 1e-9 {
		t.Errorf("opRel = %v, want four batches of 2", rel)
	}
	// 16 ops that used 40 ms of CPU beside 16 reference runs of 0.5 ms.
	seg := segStat{ops: 16, cpu: 48 * time.Millisecond, ref: 8 * time.Millisecond}
	if got := seg.cpuRelPerOp(); math.Abs(got-5) > 1e-9 {
		t.Errorf("cpuRelPerOp = %v, want 40 ms / 16 ops / 0.5 ms = 5", got)
	}
	// 1000 samples: p99 has exactly ten samples beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if _, p, beyond := tail(big, 0.99); p != 0.99 || beyond != 10 {
		t.Errorf("tail(1000 samples, 0.99) used p=%v with %d beyond", p, beyond)
	}
	if _, p, beyond := tail(big[:200], 0.99); p != 0.95 || beyond != 10 {
		t.Errorf("tail(200 samples, 0.99) used p=%v with %d beyond, want the 0.95 quantile with 10", p, beyond)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport asserts that values are exactly the declared metrics, each
// finite and well named.
func checkReport(t *testing.T, decls []metricDecl, values map[string]float64) {
	t.Helper()
	metrics, err := report(decls, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(decls) {
		t.Fatalf("%d metrics reported, %d declared", len(metrics), len(decls))
	}
	seen := make(map[string]bool)
	for _, d := range decls {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
		if v := metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.Name, v)
		}
	}
}

// TestQuickRuns runs every workload under -quick, untraced and traced:
// the metrics each prints are exactly the ones BENCHMARK.json declares,
// outputs verify, tracing changes no exact count, and the trace file is
// well formed.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for 3 s, twice")
	}
	runtime.GOMAXPROCS(2)
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics declared, the limit is 128", len(m.PerLayer))
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			c := &config{workload: w.name, seed: 3, seconds: 3, quick: true, outDir: t.TempDir()}
			plain, err := runPlain(c, w, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if plain.problem != nil || plain.failed != 0 || plain.attempted == 0 {
				t.Fatalf("untraced run: %d of %d ops failed, problem: %v", plain.failed, plain.attempted, plain.problem)
			}
			checkReport(t, m.EndToEnd, plain.values)

			c.trace = true
			var info bytes.Buffer
			traced, err := runTraced(c, w, &info)
			if err != nil {
				t.Fatal(err)
			}
			if traced.problem != nil || traced.failed != 0 {
				t.Fatalf("traced run: %d ops failed, problem: %v", traced.failed, traced.problem)
			}
			checkReport(t, m.PerLayer, traced.values)
			for name, n := range plain.exact {
				if traced.exact[name] != n {
					t.Errorf("%s is %d untraced and %d traced", name, n, traced.exact[name])
				}
			}
			for _, name := range []string{"rts.instances_per_op", "hardsim.cycles.mmult", "hardsim.cycles.susan"} {
				if traced.exact[name] <= 0 {
					t.Errorf("traced run recorded no %s", name)
				}
			}

			tf := loadTrace(t, c.outDir+"/trace-"+w.name+".json")
			if tf.Workload != w.name || len(tf.Spans) == 0 {
				t.Fatalf("trace file holds workload %q and %d spans", tf.Workload, len(tf.Spans))
			}
			checkSpans(t, tf.Spans)
		})
	}
}

// TestResultLine checks the contract of one run's output: the last line is
// a JSON object with exactly the four agreed keys.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for 3 s")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "serve-warm", "--seed", "5", "--seconds", "3", "--trace", "0", "-quick", "-manifest", manifestPath, "-out", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want 4", len(obj))
	}
	if string(obj["correct"]) != "true" || string(obj["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", obj["correct"], obj["failed"])
	}
	if !bytes.Contains(stdout.Bytes(), []byte("QUICK RUN")) {
		t.Error("a -quick run is not marked as such")
	}

	if code := realMain([]string{"--workload", "nope", "-manifest", manifestPath}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}
