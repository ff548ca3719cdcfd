package main

import (
	"testing"

	"tflux"
)

// TestVetClean verifies the example's pipeline across window
// generations under the policy main() runs: the per-window graph
// drains, and no scratch read can observe a recycled slot's stale data
// (the declared ZeroOnExport contract covers the padded final window).
func TestVetClean(t *testing.T) {
	rep, err := tflux.VetStream(build(newState()), tflux.StreamBlock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Notes) > 0 {
		t.Fatalf("findings %+v, notes %v", rep.Findings, rep.Notes)
	}
}

// TestVetShedUnsafe demonstrates why the example must run under the
// Block policy: its collector and export fold into cross-window totals
// without declaring shed tolerance, so under Shed the verifier reports
// both accumulators (dropped windows would silently break the
// exactly-once checksum main() asserts).
func TestVetShedUnsafe(t *testing.T) {
	rep, err := tflux.VetStream(build(newState()), tflux.StreamShed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("want 2 shed-unsafe findings (collect stage + export), got %+v", rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Kind.String() != "shed-unsafe" {
			t.Fatalf("unexpected finding kind %v: %s", f.Kind, f.Msg)
		}
	}
}
