package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSimulatedRowsGolden pins the deterministic experiments' rows — the
// full Figure 5 (75 rows), the quick fig5x86, tsulat, groups and the
// TFluxHard leg of unroll, then the full Figures 6 and 7 as vtime machines
// (45 and 36 rows) — as the exact bytes tfluxbench -json writes.
// Simulated cycle counts are the fixed point every other measurement is
// read against, so any drift here is a behaviour change, not noise.
// Regenerate with `go test ./internal/exp -run SimulatedRowsGolden
// -update` only after an intentional simulator or workload-model change.
func TestSimulatedRowsGolden(t *testing.T) {
	rows, err := Fig5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(Options) ([]Row, error){Fig5X86, TSULatency, Groups, UnrollSweep} {
		more, err := f(Options{Quick: true, Mode: ModeVirtual})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range more {
			if r.Mode == "sim" { // unroll's soft and cell legs break the paper's shape (EXPERIMENTS.md)
				rows = append(rows, r)
			}
		}
	}
	for _, f := range []func(Options) ([]Row, error){Fig6, Fig7} {
		more, err := f(Options{Mode: ModeVirtual})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, more...)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "simulated_rows.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var w []byte
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("simulated rows drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gotLines[i], w)
		}
	}
	t.Fatalf("simulated rows drifted from %s: %d lines, want %d", golden, len(gotLines), len(wantLines))
}
