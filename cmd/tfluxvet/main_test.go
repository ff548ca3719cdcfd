package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runVet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestVetSuiteIsClean(t *testing.T) {
	code, out, errb := runVet(t)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, name := range []string{"trapez", "mmult", "qsort", "susan", "fft"} {
		if !strings.Contains(out, `"`+name+`": ok (no findings)`) {
			t.Fatalf("output missing clean verdict for %s:\n%s", name, out)
		}
	}
}

func TestVetSingleBenchmarkWithDOT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "g.dot")
	code, out, errb := runVet(t, "-kernels", "8", "-unroll", "16", "-dot", dot, "MMULT")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "ok (no findings)") || !strings.Contains(out, "wrote synchronization graph") {
		t.Fatalf("output = %q", out)
	}
	g, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g), "digraph") {
		t.Fatalf("dot output = %q", g)
	}
}

func TestVetUsageErrors(t *testing.T) {
	cases := [][]string{
		{"NOSUCH"},
		{"-size", "gigantic", "MMULT"},
		{"-dot", "x.dot", "MMULT", "FFT"},
		{"-dot", "x.dot"}, // whole suite + -dot
	}
	for _, args := range cases {
		code, _, errb := runVet(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, errb)
		}
		if errb == "" {
			t.Errorf("args %v: no diagnostic on stderr", args)
		}
	}
}

// TestVetRefusesFlagsOfTheOtherMode: a flag the chosen mode would ignore
// is a usage error in tfluxrun's words, not a silent no-op.
func TestVetRefusesFlagsOfTheOtherMode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-window", "32", "MMULT"}, "-window requires streaming mode (-stream)"},
		{[]string{"-stream", "-size", "medium"}, "-size does not apply to streaming mode (-stream)"},
		{[]string{"-stream", "-kernels", "8", "eventfilter"}, "-kernels does not apply to streaming mode (-stream)"},
		{[]string{"-stream", "-unroll", "4"}, "-unroll does not apply to streaming mode (-stream)"},
		{[]string{"-stream", "-dot", "x.dot", "eventfilter"}, "-dot does not apply to streaming mode (-stream)"},
	} {
		code, out, errb := runVet(t, tc.args...)
		if code != 2 || !strings.Contains(errb, "tfluxvet: "+tc.want) {
			t.Errorf("args %v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, errb, tc.want)
		}
		if out != "" {
			t.Errorf("args %v: vetted something before refusing:\n%s", tc.args, out)
		}
	}
}

func TestVetStreamSuiteIsClean(t *testing.T) {
	code, out, errb := runVet(t, "-stream")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q\n%s", code, errb, out)
	}
	if !strings.Contains(out, `stream "eventfilter" under the block policy:`) ||
		!strings.Contains(out, `stream "eventfilter" under the shed policy:`) {
		t.Fatalf("output missing per-policy verdicts:\n%s", out)
	}
	if strings.Count(out, "ok (no findings)") < 2 {
		t.Fatalf("streaming workloads not clean under every policy:\n%s", out)
	}
}

func TestVetStreamSingleWorkload(t *testing.T) {
	code, out, errb := runVet(t, "-stream", "-window", "32", "eventfilter")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q\n%s", code, errb, out)
	}
	if !strings.Contains(out, "ok (no findings)") {
		t.Fatalf("output = %q", out)
	}
}

func TestVetStreamUsageErrors(t *testing.T) {
	code, _, errb := runVet(t, "-stream", "NOSUCH")
	if code != 2 {
		t.Errorf("unknown streaming workload: exit %d, want 2 (stderr %q)", code, errb)
	}
	if !strings.Contains(errb, "unknown streaming workload") {
		t.Errorf("stderr = %q", errb)
	}
}

func TestVetStreamBuildFailure(t *testing.T) {
	// 30 is not a multiple of the aggregate fan-in: the workload
	// constructor refuses, which counts as a finding (exit 1), matching
	// the batch path's build-failure contract.
	code, _, errb := runVet(t, "-stream", "-window", "30", "eventfilter")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
	if !strings.Contains(errb, "multiple of") {
		t.Fatalf("stderr = %q", errb)
	}
}

// TestVetUnknownSize: the size is parsed by workload.ParseSizeClass, so
// tfluxvet and tfluxrun name the valid sizes in the same words.
func TestVetUnknownSize(t *testing.T) {
	code, _, errb := runVet(t, "-size", "huge", "MMULT")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if want := `unknown size "huge" (want small, medium or large)`; !strings.Contains(errb, want) {
		t.Fatalf("stderr %q, want %q", errb, want)
	}
}
