package serve

import (
	"math"
	"strings"
	"testing"

	"tflux/internal/dist"
)

// TestSubmitRoundTrip is the basic service contract: a client submits a
// spec plus input bytes, the daemon runs it over the fleet, and the
// Result carries the program's final buffers.
func TestSubmitRoundTrip(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 2, 2, tw, Options{}, dist.Options{})
	defer d.stop(t)
	c := d.dial(t, "alice")
	defer c.Close() //nolint:errcheck

	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i * 5)
	}
	p, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 64},
		[]dist.RegionData{{Buffer: "in", Offset: 0, Data: in, Size: 64}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != "" {
		t.Fatalf("program failed: %s", out.Err)
	}
	wantScaled(t, in, out.Buffer("out"), "round trip")
	if got := out.Buffer("in"); string(got) != string(in) {
		t.Fatalf("input buffer came back changed")
	}
	if out.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", out.Elapsed)
	}
}

// TestAdmissionRejects walks the admission pipeline's rejection
// reasons: unresolvable spec, arena-impossible footprint, and invalid
// input regions. Each must come back as a Reject with a reason the
// client can act on, not a hang or a failed Result.
func TestAdmissionRejects(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 1, 1, tw, Options{ArenaBytes: 4096}, dist.Options{})
	defer d.stop(t)
	c := d.dial(t, "alice")
	defer c.Close() //nolint:errcheck

	cases := []struct {
		name string
		spec dist.ProgramSpec
		regs []dist.RegionData
		want string
	}{
		{"unknown workload", dist.ProgramSpec{Name: "nosuch"}, nil, "resolve:"},
		{"arena overflow", dist.ProgramSpec{Name: "scale", Param: 4096}, nil, "arena capacity"},
		{"undeclared input", dist.ProgramSpec{Name: "scale", Param: 64},
			[]dist.RegionData{{Buffer: "bogus", Data: []byte{1}, Size: 1}}, "undeclared buffer"},
		{"oversized input", dist.ProgramSpec{Name: "scale", Param: 64},
			[]dist.RegionData{{Buffer: "in", Offset: 60, Data: make([]byte, 8), Size: 8}}, "outside declared size"},
		// Offset+len wraps int64: an unchecked overlay write would panic
		// the daemon, not just this submission.
		{"wrapping offset", dist.ProgramSpec{Name: "scale", Param: 64},
			[]dist.RegionData{{Buffer: "in", Offset: math.MaxInt64, Data: []byte{1}, Size: 1}}, "outside declared size"},
		{"ref input", dist.ProgramSpec{Name: "scale", Param: 64},
			[]dist.RegionData{{Buffer: "in", Ref: true, Size: 8}}, "cache reference"},
	}
	for _, tc := range cases {
		p, err := c.Submit(tc.spec, tc.regs)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		if _, err := p.Wait(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want rejection containing %q, got %v", tc.name, tc.want, err)
		}
	}
	if snap := d.srv.Snapshot(); snap.Rejected != int64(len(cases)) || snap.Accepted != 0 {
		t.Fatalf("rejected/accepted = %d/%d, want %d/0", snap.Rejected, snap.Accepted, len(cases))
	}
	// The daemon survived every frame above and serves the next tenant.
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	p, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 8},
		[]dist.RegionData{{Buffer: "in", Data: in, Size: 8}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil || out.Err != "" {
		t.Fatalf("good submission after the rejects: %v / %+v", err, out)
	}
	wantScaled(t, in, out.Buffer("out"), "after rejects")
}

// TestTenantQuota pins per-tenant admission control: a tenant at its
// in-flight cap is rejected while another tenant still gets through.
func TestTenantQuota(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 1, 2, tw, Options{TenantQuota: 2, MaxQueue: 16}, dist.Options{})
	defer d.stop(t)
	alice := d.dial(t, "alice")
	defer alice.Close() //nolint:errcheck
	bob := d.dial(t, "bob")
	defer bob.Close() //nolint:errcheck

	spec := dist.ProgramSpec{Name: "gated", Param: 4}
	p1, err := alice.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := alice.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d.srv, "two accepted", func(s Snapshot) bool { return s.Accepted == 2 })
	p3, err := alice.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Wait(); err == nil || !strings.Contains(err.Error(), "quota exceeded") {
		t.Fatalf("third alice submission: want quota rejection, got %v", err)
	}
	// Another tenant is not affected by alice's quota.
	pb, err := bob.Submit(dist.ProgramSpec{Name: "scale", Param: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tw.release()
	for _, p := range []*Pending{p1, p2, pb} {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != "" {
			t.Fatalf("program failed: %s", out.Err)
		}
	}
}

// TestQueueBound pins the global bounded queue: with the fleet busy and
// the queue full, the next submission is rejected rather than buffered
// without limit.
func TestQueueBound(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 1, 1, tw, Options{MaxPrograms: 1, MaxQueue: 1, TenantQuota: 16}, dist.Options{})
	defer d.stop(t)
	c := d.dial(t, "alice")
	defer c.Close() //nolint:errcheck

	spec := dist.ProgramSpec{Name: "gated", Param: 2}
	p1, err := c.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d.srv, "one running one queued", func(s Snapshot) bool {
		return s.Running == 1 && s.Queued == 1
	})
	p3, err := c.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Wait(); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("want queue-full rejection, got %v", err)
	}
	tw.release()
	for _, p := range []*Pending{p1, p2} {
		if out, err := p.Wait(); err != nil || out.Err != "" {
			t.Fatalf("gated program: %v / %+v", err, out)
		}
	}
}

// TestWeightedFairness pins the per-tenant weighted round-robin: with
// the fleet saturated and both tenants' queues full, tenant A at
// weight 2 opens two programs for every one of tenant B's.
func TestWeightedFairness(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 1, 1, tw, Options{
		MaxPrograms: 1,
		MaxQueue:    16,
		Weights:     map[string]int{"A": 2, "B": 1},
	}, dist.Options{})
	defer d.stop(t)
	a := d.dial(t, "A")
	defer a.Close() //nolint:errcheck
	b := d.dial(t, "B")
	defer b.Close() //nolint:errcheck
	gatekeeper := d.dial(t, "X")
	defer gatekeeper.Close() //nolint:errcheck

	// Pin the single run slot with a gated program, then queue A's and
	// B's work in a known order (polling between submissions: admission
	// order across connections is otherwise unordered).
	pg, err := gatekeeper.Submit(dist.ProgramSpec{Name: "gated", Param: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d.srv, "gate running", func(s Snapshot) bool { return s.Running == 1 })

	var pend []*Pending
	submit := func(c *Client, tagIdx, n int) {
		t.Helper()
		p, err := c.Submit(dist.ProgramSpec{Name: "tagged", Param: tagIdx}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
		waitSnapshot(t, d.srv, "queued", func(s Snapshot) bool { return s.Queued == n })
	}
	submit(a, 0, 1) // A1
	submit(a, 0, 2) // A2
	submit(a, 0, 3) // A3
	submit(a, 0, 4) // A4
	submit(b, 1, 5) // B1
	submit(b, 1, 6) // B2

	tw.release()
	if out, err := pg.Wait(); err != nil || out.Err != "" {
		t.Fatalf("gate program: %v / %+v", err, out)
	}
	for _, p := range pend {
		if out, err := p.Wait(); err != nil || out.Err != "" {
			t.Fatalf("tagged program: %v / %+v", err, out)
		}
	}
	got := strings.Join(tw.executionOrder(), "")
	if got != "AABAAB" {
		t.Fatalf("execution order = %q, want AABAAB (weight 2:1 round-robin)", got)
	}
}

// TestCloseDrains: Close stops admissions, fails queued programs with
// a shutdown Result, and waits for running ones.
func TestCloseDrains(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 1, 1, tw, Options{MaxPrograms: 1, MaxQueue: 4}, dist.Options{})
	c := d.dial(t, "alice")
	defer c.Close() //nolint:errcheck

	p1, err := c.Submit(dist.ProgramSpec{Name: "gated", Param: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d.srv, "one running one queued", func(s Snapshot) bool {
		return s.Running == 1 && s.Queued == 1
	})
	closed := make(chan struct{})
	go func() {
		tw.release()  // let the running program finish so Close can drain
		d.srv.Close() //nolint:errcheck
		close(closed)
	}()
	if out, err := p1.Wait(); err != nil || out.Err != "" {
		t.Fatalf("running program through drain: %v / %+v", err, out)
	}
	out2, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.Err, "shutting down") {
		t.Fatalf("queued program: want shutdown Result, got %+v", out2)
	}
	<-closed
	p3, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Wait(); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("post-close submission: want draining rejection, got %v", err)
	}
	d.ln.Close()  //nolint:errcheck
	d.flt.Close() //nolint:errcheck
	d.wait()
}

// TestDashboard sanity-checks the obs-backed status report.
func TestDashboard(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 2, 1, tw, Options{}, dist.Options{})
	defer d.stop(t)
	c := d.dial(t, "alice")
	defer c.Close() //nolint:errcheck

	for i := 0; i < 3; i++ {
		p, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 16}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := p.Wait(); err != nil || out.Err != "" {
			t.Fatalf("program %d: %v / %+v", i, err, out)
		}
	}
	snap := d.srv.Snapshot()
	if snap.Completed != 3 || snap.Failed != 0 || snap.ProgramsPerSec <= 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.P99 < snap.P50 || snap.P99 <= 0 {
		t.Fatalf("latency quantiles: p50=%v p99=%v", snap.P50, snap.P99)
	}
	var sb strings.Builder
	if err := d.srv.WriteDashboard(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tfluxd", "completed 3", "programs/sec", "tenant alice", "2/2 nodes alive"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("dashboard missing %q:\n%s", want, sb.String())
		}
	}
}
