package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tflux/internal/dist"
	"tflux/internal/serve"
	"tflux/internal/workload"
)

// syncBuffer is a Writer the daemon goroutine and the test can share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// listenAddr extracts the bound address from the daemon's banner.
func listenAddr(out *syncBuffer) (string, bool) {
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "tfluxd: listening on "); ok {
			return rest, true
		}
	}
	return "", false
}

// serveOne boots the daemon on an ephemeral port with the given extra
// flags, submits a suite benchmark as a client would, then signals the
// daemon and returns what it printed once the graceful drain is over.
func serveOne(t *testing.T, tenant string, extra ...string) string {
	t.Helper()
	var out, errOut syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-listen", "127.0.0.1:0", "-nodes", "2", "-kernels-per-node", "2"}, extra...),
			&out, &errOut, sig)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a, ok := listenAddr(&out); ok {
			addr = a
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address; stderr: %s", errOut.String())
	}

	ws, err := workload.ByName("TRAPEZ")
	if err != nil {
		t.Fatal(err)
	}
	sizes, _ := ws.Sizes(workload.Native)
	c, err := serve.Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	p, err := c.Submit(dist.ProgramSpec{Name: "TRAPEZ", Param: sizes[workload.Small], Unroll: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("benchmark failed on the daemon: %s", res.Err)
	}

	sig <- os.Interrupt
	select {
	case rc := <-code:
		if rc != 0 {
			t.Fatalf("exit code %d; stderr: %s", rc, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain; stdout: %s", out.String())
	}
	return out.String()
}

// TestDaemonServesAndDrains checks the graceful drain and the shutdown
// dashboard.
func TestDaemonServesAndDrains(t *testing.T) {
	got := serveOne(t, "ci")
	for _, want := range []string{"draining", "completed 1", "programs/sec", "tenant ci"} {
		if !strings.Contains(got, want) {
			t.Fatalf("shutdown output missing %q:\n%s", want, got)
		}
	}
}

// TestDaemonFaultDrill pins the daemon's -faults report, byte for byte:
// node 1's link is severed at the coordinator's second frame to it, the
// submission completes on the surviving node, and the drain names the
// fault that fired before the dashboard.
func TestDaemonFaultDrill(t *testing.T) {
	got := serveOne(t, "drill", "-faults", "seed=7,plan=sever:node=1:after=1")
	const report = "tfluxd: chaos fired 1 fault(s)\n  node 1 frame 2: sever \n"
	if !strings.Contains(got, report) {
		t.Fatalf("shutdown output missing the fault report %q:\n%s", report, got)
	}
	if i, j := strings.Index(got, report), strings.Index(got, "completed 1"); j < i {
		t.Fatalf("dashboard (completed 1) missing or printed before the fault report:\n%s", got)
	}
}

// TestWeightsFlag pins the -weights grammar.
func TestWeightsFlag(t *testing.T) {
	w, err := parseWeights("team-a=3,team-b=1")
	if err != nil || w["team-a"] != 3 || w["team-b"] != 1 {
		t.Fatalf("parseWeights: %v %v", w, err)
	}
	for _, bad := range []string{"team-a", "team-a=zero", "=3", "team-a=0"} {
		if _, err := parseWeights(bad); err == nil {
			t.Fatalf("parseWeights(%q) accepted", bad)
		}
	}
}

// TestFleetShapeFlagsRefused pins that a fleet shape or admission bound
// the daemon cannot honour is refused by name instead of being clamped to
// one node or one kernel, or replaced by a default, without a word. An
// -arena-mb past math.MaxInt64>>20 would overflow its byte count.
func TestFleetShapeFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-nodes", "0", "at least 1"},
		{"-nodes", "-2", "at least 1"},
		{"-kernels-per-node", "0", "at least 1"},
		{"-max-programs", "-1", "at least 0"},
		{"-max-queue", "-3", "at least 0"},
		{"-tenant-quota", "-1", "at least 0"},
		{"-arena-mb", "-5", "at least 0"},
		{"-arena-mb", "8796093022208", "at most 8796093022207"},
		{"-arena-mb", "17592186044417", "at most 8796093022207"},
	} {
		var out, errOut syncBuffer
		sig := make(chan os.Signal, 1)
		code := make(chan int, 1)
		go func() {
			code <- run([]string{"-listen", "127.0.0.1:0", tc.flag, tc.val}, &out, &errOut, sig)
		}()
		select {
		case rc := <-code:
			if rc != 1 || !strings.Contains(errOut.String(), tc.flag+" must be "+tc.want+", not "+tc.val) {
				t.Errorf("%s %s: exit %d, stderr %q", tc.flag, tc.val, rc, errOut.String())
			}
		case <-time.After(2 * time.Second):
			sig <- os.Interrupt // a daemon came up: drain it so the test does not leak a fleet
			<-code
			t.Errorf("%s %s: a daemon started: %s", tc.flag, tc.val, out.String())
		}
	}
}

// TestFaultsRefusePlanRefused pins that a fault kind no injector honours
// stops the daemon before it listens: "refuse" used to parse and then
// fire nothing on any worker link.
func TestFaultsRefusePlanRefused(t *testing.T) {
	var out, errOut syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "127.0.0.1:0", "-faults", "seed=3,plan=refuse:node=1"}, &out, &errOut, sig)
	}()
	select {
	case rc := <-code:
		if rc != 1 || !strings.Contains(errOut.String(), "unknown fault kind") {
			t.Errorf("exit %d, stderr %q", rc, errOut.String())
		}
	case <-time.After(2 * time.Second):
		sig <- os.Interrupt
		<-code
		t.Errorf("a daemon started: %s", out.String())
	}
}
