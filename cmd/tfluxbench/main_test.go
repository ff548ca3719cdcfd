package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tflux/internal/exp"
)

func TestRunTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"TRAPEZ", "MMULT", "QSORT", "SUSAN", "FFT"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table1 missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunBudget(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "budget"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "430K") {
		t.Fatalf("budget output:\n%s", out.String())
	}
}

// TestRunFig5QuickFormats pins the one human-readable row format, the
// table; -json is the machine-readable one (TestRunJSONOutput).
func TestRunFig5QuickFormats(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "TRAPEZ") {
		t.Fatalf("table output:\n%s", out.String())
	}
}

func TestRunVerboseProgress(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-quick", "-v"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), "fig5 TRAPEZ") {
		t.Fatalf("no progress lines on stderr: %q", errb.String())
	}
}

func TestRunVirtualModeFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig6", "-quick", "-mode", "virtual"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "virtual") {
		t.Fatalf("rows not marked virtual:\n%s", out.String())
	}
}

func TestRunMetricsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig5", "-quick", "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"-- metrics --", "hard.cycles", "tsu.decrements"} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics summary missing %q:\n%s", want, s)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "groups", "-quick", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(rows) != 3 { // TSU group counts 1, 2, 4
		t.Fatalf("json rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		for _, key := range []string{"experiment", "benchmark", "seq", "par", "unit", "mode", "speedup", "class"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("json row missing %q: %v", key, row)
			}
		}
		// A row is a speedup and nothing else: the streaming columns went
		// with the experiments that filled them.
		for _, key := range []string{"throughput_eps", "p50_s", "p95_s", "p99_s"} {
			if _, ok := row[key]; ok {
				t.Fatalf("json row still carries %q: %v", key, row)
			}
		}
	}
	// "-" writes the array to stdout.
	out.Reset()
	if code := run([]string{"-exp", "budget", "-json", "-"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[]") {
		t.Fatalf("rowless experiment should emit an empty JSON array:\n%s", out.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := [][]string{
		{"-exp", "bogus"},
		{"-format", "csv", "-exp", "table1"}, // the flag is gone: -json is the machine-readable form
		{"-mode", "psychic", "-exp", "table1"},
		{"-notaflag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestAllQuick runs the whole experiment table the way CI's bench-smoke
// job does and checks that every entry printed its section, in table
// order, and that the headline line closes the figures' sections and no
// other: averaged over a study's rows it would call settings benchmarks.
func TestAllQuick(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "all", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var got []string
	headlines := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "== ") {
			got = append(got, line)
		}
		if strings.HasPrefix(line, "mean speedup at ") && len(got) > 0 {
			headlines[got[len(got)-1]]++
		}
	}
	if len(got) != len(exp.Experiments) {
		t.Fatalf("%d section headers for %d experiments:\n%s", len(got), len(exp.Experiments), strings.Join(got, "\n"))
	}
	for i, e := range exp.Experiments {
		if !strings.HasPrefix(got[i], "== "+e.Name) {
			t.Errorf("section %d is %q, want experiment %q", i, got[i], e.Name)
		}
		want := 0
		if e.Figure {
			want = 1
		}
		if headlines[got[i]] != want {
			t.Errorf("section %q has %d headline line(s), want %d", got[i], headlines[got[i]], want)
		}
	}
}

// TestUnknownExperimentNamesTheValidOnes covers a name that never existed
// and the five wall-clock extension experiments that no longer do (their
// numbers come from the repo benchmark under bench/).
func TestUnknownExperimentNamesTheValidOnes(t *testing.T) {
	for _, name := range []string{"fig8", "serve", "stream", "dist", "shards", "policy"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-exp", name, "-quick"}, &out, &errb); code != 2 {
			t.Fatalf("-exp %s: exit %d, want 2", name, code)
		}
		for _, e := range exp.Experiments {
			if !strings.Contains(errb.String(), e.Name) {
				t.Errorf("-exp %s: diagnostic does not offer %q: %s", name, e.Name, errb.String())
			}
		}
	}
}
