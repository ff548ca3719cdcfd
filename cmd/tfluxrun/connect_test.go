package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"tflux/internal/dist"
	"tflux/internal/serve"
)

// startTestDaemon hosts an in-process tfluxd equivalent (fleet +
// service layer + listener) for client-mode runs to connect to.
func startTestDaemon(t *testing.T, nodes, kernelsPerNode int, opt serve.Options) string {
	t.Helper()
	resolver := serve.WorkloadResolver()
	flt, wait, err := dist.NewLocalFleet(nodes, kernelsPerNode, resolver, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt.Resolver = resolver
	srv, err := serve.New(flt, opt)
	if err != nil {
		flt.Close() //nolint:errcheck
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		flt.Close() //nolint:errcheck
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns when ln closes
	t.Cleanup(func() {
		ln.Close()  //nolint:errcheck
		srv.Close() //nolint:errcheck
		flt.Close() //nolint:errcheck
		for i, werr := range wait() {
			if werr != nil {
				t.Errorf("daemon node %d: %v", i, werr)
			}
		}
	})
	return ln.Addr().String()
}

// TestRunConnect submits a benchmark to a live daemon and verifies the
// returned buffers against the local replica.
func TestRunConnect(t *testing.T) {
	addr := startTestDaemon(t, 2, 2, serve.Options{})
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-size", "small", "-reps", "1",
		"-connect", addr, "-tenant", "ci"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"MMULT 64x64 via " + addr, "tenant ci", "daemon:", "speedup:", "verify:     ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunConnectRejection surfaces the daemon's Reject reason to the
// user instead of a bare failure: a daemon with a tiny arena cannot
// carve MMULT's matrices, and the reason reaches stderr.
func TestRunConnectRejection(t *testing.T) {
	addr := startTestDaemon(t, 1, 1, serve.Options{ArenaBytes: 4096})
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "MMULT", "-size", "small", "-reps", "1",
		"-connect", addr}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if s := errb.String(); !strings.Contains(s, "rejected") || !strings.Contains(s, "arena capacity") {
		t.Fatalf("stderr lacks the rejection reason: %s", s)
	}
}

// TestRunConnectIncompatibleFlags pins the clear-error contract: every
// coordinator-side flag is rejected when combined with -connect, and
// -tenant without -connect is rejected too.
func TestRunConnectIncompatibleFlags(t *testing.T) {
	cases := [][]string{
		{"-connect", "127.0.0.1:1", "-platform", "dist"},
		{"-connect", "127.0.0.1:1", "-nodes", "4"},
		{"-connect", "127.0.0.1:1", "-dist-batch", "1"},
		{"-connect", "127.0.0.1:1", "-dist-batch-bytes", "1024"},
		{"-connect", "127.0.0.1:1", "-dist-window", "1"},
		{"-connect", "127.0.0.1:1", "-dist-no-cache"},
		{"-connect", "127.0.0.1:1", "-trace-out", "/tmp/x.json"},
		{"-connect", "127.0.0.1:1", "-metrics"},
		{"-connect", "127.0.0.1:1", "-gantt"},
		{"-connect", "127.0.0.1:1", "-vet"},
		{"-connect", "127.0.0.1:1", "-dot", "/tmp/x.dot"},
	}
	for _, args := range cases {
		refused(t, args, "incompatible with -connect")
	}
	refused(t, []string{"-tenant", "ci"}, "-tenant only applies to -connect")
}

// TestRunConnectWithFaults composes fault injection with client mode:
// the chaos plan wraps the client's connection to the daemon. A
// mid-stream sever of that link must surface as a clear client-side
// error — the daemon is fine; the client lost it.
func TestRunConnectWithFaults(t *testing.T) {
	addr := startTestDaemon(t, 2, 1, serve.Options{})
	var out, errb bytes.Buffer
	// Sever after the first written frame: the first Submit lands, the
	// second rep's Submit trips the sever.
	code := run([]string{"-bench", "TRAPEZ", "-size", "small", "-reps", "2",
		"-connect", addr,
		"-dist-faults", "seed=3,plan=sever:node=0:after=1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (client link severed)\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if s := errb.String(); !strings.Contains(s, "severed") && !strings.Contains(s, "connection to daemon lost") {
		t.Fatalf("stderr lacks the severed-link error: %s", s)
	}
}
