package ddmlint

import (
	"fmt"
	"strings"

	"tflux/internal/core"
)

// admitOpts bounds the admission-time analysis. Admission sits on the
// daemon's submission path, so the expansion and bitset caps are far
// below the offline defaults: a program too large to verify within them
// is not silently admitted — expandBlock leaves a Note and the structural
// checks that did run still gate. The race pass keeps the offline
// accessor cap: its sweep proves the whole suite at every native size
// within these bounds (TestAdmitProvesSuite).
var admitOpts = Options{
	MaxInstances: 1 << 16,
	MaxEdges:     1 << 19,
	MaxRaceBytes: 4 << 20,
}

// Admit is the service-admission gate: it lints p and returns an error
// describing every structural finding — broken synchronization graphs,
// out-of-bounds regions, and regions naming buffers the program never
// declared (the isolation-relevant kind: in a multi-tenant daemon a
// program's declared buffers ARE its namespace, so an undeclared-buffer
// region is an attempt to reach outside it). Race findings between a
// program's own declared accesses warn in the report but do not reject,
// matching the DDMCPP frontend's severity split.
//
// The returned error text is what the daemon puts in the Reject frame,
// so it enumerates the findings rather than just counting them.
func Admit(p *core.Program) error {
	r, err := LintOpts(p, admitOpts)
	if err != nil {
		return err
	}
	if !r.Structural() {
		return nil
	}
	var sb strings.Builder
	n := 0
	for i := range r.Findings {
		f := &r.Findings[i]
		if !f.Kind.Structural() {
			continue
		}
		if n > 0 {
			sb.WriteString("; ")
		}
		if n == 4 {
			sb.WriteString("…")
			break
		}
		fmt.Fprintf(&sb, "%s", f.String())
		n++
	}
	return fmt.Errorf("ddmlint: program %q rejected: %s", p.Name, sb.String())
}
