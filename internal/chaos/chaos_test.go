package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pipePair returns two ends of a real loopback TCP connection.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// pump writes frames 16-byte frames through the wrapped conn and drains
// them on the far side, returning the write error that stopped it (nil
// if all n frames went through).
func pump(t *testing.T, wrapped, far net.Conn, n int) error {
	t.Helper()
	go io.Copy(io.Discard, far) //nolint:errcheck
	buf := make([]byte, 16)
	for i := 0; i < n; i++ {
		if _, err := wrapped.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func TestSeverAfterFrames(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Sever, Node: 0, After: 5}}}
	log := NewLog()
	client, server := pipePair(t)
	wrapped := plan.Wrap(0, client, log)
	err := pump(t, wrapped, server, 100)
	if !errors.Is(err, ErrSevered) {
		t.Fatalf("err = %v, want ErrSevered", err)
	}
	evs := log.Events()
	if len(evs) != 1 || evs[0].Kind != "sever" || evs[0].Frame != 6 {
		t.Fatalf("events = %v", evs)
	}
	// Subsequent use keeps failing.
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrSevered) {
		t.Fatalf("post-sever write err = %v", err)
	}
	if _, err := wrapped.Read(make([]byte, 1)); !errors.Is(err, ErrSevered) {
		t.Fatalf("post-sever read err = %v", err)
	}
}

func TestSeverMidFrameDeliversHalf(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Sever, Node: 0, MidFrame: true}}}
	client, server := pipePair(t)
	wrapped := plan.Wrap(0, client, NewLog())
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := wrapped.Write(payload); !errors.Is(err, ErrSevered) {
		t.Fatalf("write err = %v", err)
	}
	got, err := io.ReadAll(server)
	if err != nil && !errors.Is(err, io.EOF) {
		// A RST from the severed side is acceptable; the partial bytes
		// read before it are what we assert on.
		t.Logf("read error after sever: %v", err)
	}
	if len(got) != 32 {
		t.Fatalf("peer saw %d bytes of a 64-byte frame, want 32", len(got))
	}
}

func TestStallReadIsOneWay(t *testing.T) {
	const stall = 80 * time.Millisecond
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: StallRead, Node: 0, Dur: stall}}}
	client, server := pipePair(t)
	wrapped := plan.Wrap(0, client, NewLog())

	// The write side must be unaffected by a read-side stall.
	start := time.Now()
	if _, err := wrapped.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > stall/2 {
		t.Fatalf("write took %v — stall leaked into the write side", d)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(wrapped, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("read returned after %v, want ≥ %v stall", d, stall)
	}
}

func TestThrottleSlowsWrites(t *testing.T) {
	// 16 KiB at 64 KiB/s ⇒ ≥ 250ms.
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Throttle, Node: 0, Rate: 64 << 10}}}
	client, server := pipePair(t)
	wrapped := plan.Wrap(0, client, NewLog())
	go io.Copy(io.Discard, server) //nolint:errcheck
	start := time.Now()
	buf := make([]byte, 4<<10)
	for i := 0; i < 4; i++ {
		if _, err := wrapped.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("16 KiB at 64 KiB/s took %v, want ≥ 200ms", d)
	}
}

func TestLatencyRampAndJitterDeterministic(t *testing.T) {
	run := func() []Event {
		plan := &Plan{Seed: 42, Rules: []Rule{
			{Kind: Latency, Node: -1, After: 2, Dur: time.Millisecond, Jitter: time.Millisecond, Ramp: 100 * time.Microsecond},
			{Kind: Sever, Node: 0, After: 8},
		}}
		log := NewLog()
		client, server := pipePair(t)
		wrapped := plan.Wrap(0, client, log)
		if err := pump(t, wrapped, server, 50); !errors.Is(err, ErrSevered) {
			t.Fatalf("err = %v", err)
		}
		return log.Events()
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed produced different logs:\n%v\n%v", first, second)
	}
	if len(first) != 2 || first[0].Kind != "latency" || first[1].Kind != "sever" {
		t.Fatalf("events = %v", first)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=7,plan=sever:node=1:after=40:midframe=true;latency:dur=1ms:jitter=500us")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 2 {
		t.Fatalf("plan = %+v", p)
	}
	want := []Rule{
		{Kind: Sever, Node: 1, After: 40, MidFrame: true},
		{Kind: Latency, Node: -1, Dur: time.Millisecond, Jitter: 500 * time.Microsecond},
	}
	if !reflect.DeepEqual(p.Rules, want) {
		t.Fatalf("rules = %+v, want %+v", p.Rules, want)
	}
	// Bare rules without seed/plan prefixes parse too.
	p, err = ParseSpec("throttle:rate=1024")
	if err != nil || p.Seed != 1 || p.Rules[0].Kind != Throttle || p.Rules[0].Rate != 1024 {
		t.Fatalf("bare spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"", "seed=7", "seed=x,plan=sever", "bogus:after=1", "sever:after", "sever:after=x", "sever:nope=1",
		"latency:delay=1ms"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseSpecRefusesRefuse pins that a kind no injector honours is a
// parse error naming the kinds there are, not a plan that fires nothing:
// "refuse" used to parse, and then no -dist-faults or tfluxd -faults run
// ever refused a connection.
func TestParseSpecRefusesRefuse(t *testing.T) {
	_, err := ParseSpec("refuse:node=1")
	if err == nil {
		t.Fatal("refuse:node=1 parsed")
	}
	for k := Latency; k <= Sever; k++ {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not name %q", err, k)
		}
	}
}
