package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tflux/internal/core"
)

// sampleFrames returns one representative frame of every type, with
// regions exercising full payloads, cache references, empty data and
// error strings.
func sampleFrames() []frame {
	return []frame{
		{typ: ftHello, hello: Hello{Kernels: 7}},
		{typ: ftExecBatch, execs: []Exec{
			{
				Prog:   3,
				Inst:   core.Instance{Thread: 3, Ctx: 41},
				Kernel: 2,
				Imports: []RegionData{
					{Buffer: "A", Offset: 128, Data: []byte{1, 2, 3, 4}, Ver: 9, Size: 4},
					{Buffer: "B", Offset: 0, Ver: 12, Ref: true, Size: 4096},
					{Buffer: "empty", Offset: 7, Data: []byte{}, Size: 0},
				},
			},
			{Inst: core.Instance{Thread: 1, Ctx: 0}, Kernel: 0},
		}},
		{typ: ftDoneBatch, dones: []Done{
			{
				Prog:    3,
				Inst:    core.Instance{Thread: 3, Ctx: 41},
				Kernel:  2,
				Exports: []RegionData{{Buffer: "C", Offset: 64, Data: []byte{9, 8, 7}, Size: 3}},
			},
			{Inst: core.Instance{Thread: 5, Ctx: 2}, Kernel: 1, Err: "DThread panicked on worker: boom"},
		}},
		{typ: ftShutdown},
		{typ: ftPing, seq: 1234},
		{typ: ftPong, seq: 1234},
		{typ: ftOpenProg, open: OpenProg{
			Prog: 7,
			Spec: ProgramSpec{Name: "matmul", Param: -64, Kernels: 4, Unroll: 2},
		}},
		{typ: ftOpenProg, open: OpenProg{
			Prog:   8,
			Spec:   ProgramSpec{Name: "FFT", Param: 32, Kernels: 2, Unroll: 1},
			Pooled: true,
		}},
		{typ: ftProgAck, ack: ProgAck{Prog: 7, Err: "unknown workload \"matmul\""}},
		{typ: ftCloseProg, closeProg: 7},
		{typ: ftSubmit, submit: Submit{
			Seq:    42,
			Tenant: "team-a",
			Spec:   ProgramSpec{Name: "blackscholes", Param: 1024, Kernels: 8, Unroll: 4},
			Regions: []RegionData{
				{Buffer: "in", Offset: 16, Data: []byte{5, 6}, Size: 2},
				{Buffer: "empty", Offset: 0, Data: []byte{}, Size: 0},
			},
		}},
		{typ: ftAccept, accept: Accept{Seq: 42, Prog: 9}},
		{typ: ftReject, reject: Reject{Seq: 42, Reason: "tenant quota exceeded"}},
		{typ: ftResult, result: Result{
			Prog:      9,
			Err:       "dist: all 4 nodes lost",
			ElapsedNS: 123456789,
			Failovers: 2,
			Retries:   5,
			Regions:   []RegionData{{Buffer: "out", Offset: 0, Data: []byte{1, 2, 3}, Size: 3}},
		}},
	}
}

// encodeFrame serializes a decoded frame back to wire bytes using the
// same append helpers the link senders use.
func encodeFrame(f frame) ([]byte, error) {
	b := make([]byte, frameHeader)
	switch f.typ {
	case ftHello:
		b = appendUvarint(b, uint64(f.hello.Kernels))
	case ftExecBatch:
		b = appendUvarint(b, uint64(len(f.execs)))
		for i := range f.execs {
			b = appendExec(b, &f.execs[i])
		}
	case ftDoneBatch:
		b = appendUvarint(b, uint64(len(f.dones)))
		for i := range f.dones {
			b = appendDone(b, &f.dones[i])
		}
	case ftShutdown:
	case ftPing, ftPong:
		b = appendUvarint(b, uint64(f.seq))
	case ftOpenProg:
		b = appendUvarint(b, uint64(f.open.Prog))
		if f.open.Pooled {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendSpec(b, &f.open.Spec)
	case ftProgAck:
		b = appendUvarint(b, uint64(f.ack.Prog))
		b = appendString(b, f.ack.Err)
	case ftCloseProg:
		b = appendUvarint(b, uint64(f.closeProg))
	case ftSubmit:
		b = appendUvarint(b, f.submit.Seq)
		b = appendString(b, f.submit.Tenant)
		b = appendSpec(b, &f.submit.Spec)
		b = appendRegions(b, f.submit.Regions)
	case ftAccept:
		b = appendUvarint(b, f.accept.Seq)
		b = appendUvarint(b, uint64(f.accept.Prog))
	case ftReject:
		b = appendUvarint(b, f.reject.Seq)
		b = appendString(b, f.reject.Reason)
	case ftResult:
		b = appendUvarint(b, uint64(f.result.Prog))
		b = appendString(b, f.result.Err)
		b = appendUvarint(b, f.result.ElapsedNS)
		b = appendUvarint(b, f.result.Failovers)
		b = appendUvarint(b, f.result.Retries)
		b = appendRegions(b, f.result.Regions)
	}
	return finishFrame(b, f.typ)
}

// normalizeRegions maps nil and empty region slices (and payloads) to
// one form for DeepEqual.
func normalizeRegions(regions []RegionData) []RegionData {
	if len(regions) == 0 {
		return nil
	}
	for i := range regions {
		if len(regions[i].Data) == 0 {
			regions[i].Data = nil
		}
	}
	return regions
}

// normalizeFrame maps nil and empty slices to one form, and drops the
// receive buffer a frame was decoded into, so DeepEqual compares content,
// not allocation history.
func normalizeFrame(f *frame) {
	f.rx = nil
	if len(f.execs) == 0 {
		f.execs = nil
	}
	for i := range f.execs {
		if len(f.execs[i].Imports) == 0 {
			f.execs[i].Imports = nil
		}
		for j := range f.execs[i].Imports {
			if len(f.execs[i].Imports[j].Data) == 0 {
				f.execs[i].Imports[j].Data = nil
			}
		}
	}
	if len(f.dones) == 0 {
		f.dones = nil
	}
	for i := range f.dones {
		if len(f.dones[i].Exports) == 0 {
			f.dones[i].Exports = nil
		}
		for j := range f.dones[i].Exports {
			if len(f.dones[i].Exports[j].Data) == 0 {
				f.dones[i].Exports[j].Data = nil
			}
		}
	}
	f.submit.Regions = normalizeRegions(f.submit.Regions)
	f.result.Regions = normalizeRegions(f.result.Regions)
}

// TestCodecRoundTrip sends every frame type through a real link pair and
// checks the decoded frame matches what went in.
func TestCodecRoundTrip(t *testing.T) {
	for _, want := range sampleFrames() {
		c1, c2 := net.Pipe()
		ls, lr := newLink(c1), newLink(c2)
		errc := make(chan error, 1)
		go func() {
			var err error
			switch want.typ {
			case ftHello:
				err = ls.sendHello(want.hello.Kernels)
			case ftExecBatch:
				err = ls.sendExecBatch(want.execs)
			case ftDoneBatch:
				err = ls.sendDoneBatch(want.dones)
			case ftShutdown:
				err = ls.sendShutdown()
			case ftPing:
				err = ls.sendPing(want.seq)
			case ftPong:
				err = ls.sendPong(want.seq)
			case ftOpenProg:
				err = ls.sendOpenProg(want.open.Prog, want.open.Spec, want.open.Pooled)
			case ftProgAck:
				err = ls.sendProgAck(want.ack.Prog, want.ack.Err)
			case ftCloseProg:
				err = ls.sendCloseProg(want.closeProg)
			case ftSubmit:
				err = ls.sendSubmit(&want.submit)
			case ftAccept:
				err = ls.sendAccept(want.accept.Seq, want.accept.Prog)
			case ftReject:
				err = ls.sendReject(want.reject.Seq, want.reject.Reason)
			case ftResult:
				err = ls.sendResult(&want.result)
			}
			errc <- err
		}()
		got, err := lr.recv()
		if err != nil {
			t.Fatalf("%v: recv: %v", want.typ, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%v: send: %v", want.typ, err)
		}
		normalizeFrame(&want)
		normalizeFrame(&got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v round trip mismatch:\nsent %+v\ngot  %+v", want.typ, want, got)
		}
		c1.Close()
		c2.Close()
	}
}

// TestCodecBadTag pins the version-mismatch error: a peer speaking a
// different protocol version (or the old gob framing) must fail the very
// first read with a clear message, not desynchronize.
func TestCodecBadTag(t *testing.T) {
	for _, tag := range []byte{0x00, 0x02, 0x11, 0xff} {
		_, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{tag, 0})))
		if err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Fatalf("tag 0x%02x: want protocol version error, got %v", tag, err)
		}
	}
	// A v3 worker's Hello: its install/ref frames are gone, so it must be
	// refused at the handshake, by version.
	_, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{3<<4 | byte(ftHello), 1, 2})))
	if err == nil || !strings.Contains(err.Error(), "peer speaks protocol version 3, this side 4") {
		t.Fatalf("v3 Hello: want it refused by version, got %v", err)
	}
}

// badModeOpenProg is a well-formed OpenProg (program 8, spec "x"/0/0/0)
// except that its mode byte is neither cold (0) nor pooled (1).
var badModeOpenProg = []byte{protoVersion<<4 | byte(ftOpenProg), 7, 8, 2, 1, 'x', 0, 0, 0}

// TestCodecOpenProgMode: a mode byte this version does not define is
// malformed, not read as one of the two it does.
func TestCodecOpenProgMode(t *testing.T) {
	_, err := readFrame(bufio.NewReader(bytes.NewReader(badModeOpenProg)))
	if err == nil || !strings.Contains(err.Error(), "unknown OpenProg mode 2") {
		t.Fatalf("mode 2: want it refused by name, got %v", err)
	}
}

// TestCodecTruncated decodes every prefix of every valid frame; each
// must error cleanly (the full frame must not).
func TestCodecTruncated(t *testing.T) {
	for _, f := range sampleFrames() {
		wire, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(wire); n++ {
			if _, err := readFrame(bufio.NewReader(bytes.NewReader(wire[:n]))); err == nil {
				t.Fatalf("%v truncated to %d/%d bytes decoded without error", f.typ, n, len(wire))
			}
		}
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(wire))); err != nil {
			t.Fatalf("%v full frame: %v", f.typ, err)
		}
	}
}

// TestCodecCorrupted flips each byte of a region-carrying frame; decode
// must either succeed or error — never panic — and the inner length
// guards must reject counts pointing past the payload.
func TestCodecCorrupted(t *testing.T) {
	f := sampleFrames()[1] // ExecBatch with regions
	wire, err := encodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0xff
		readFrame(bufio.NewReader(bytes.NewReader(mut))) //nolint:errcheck // must not panic
	}
}

// TestCodecOversizedLength covers lying length prefixes: a declared
// payload over the frame limit is rejected outright, and a large-but-
// legal declaration backed by too few bytes fails after reading at most
// one chunk — it must not allocate the declared size up front.
func TestCodecOversizedLength(t *testing.T) {
	over := append([]byte{protoVersion<<4 | byte(ftExecBatch)}, binary.AppendUvarint(nil, maxFrame+1)...)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(over))); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized declaration: want limit error, got %v", err)
	}

	lying := append([]byte{protoVersion<<4 | byte(ftExecBatch)}, binary.AppendUvarint(nil, maxFrame)...)
	lying = append(lying, 1, 2, 3) // 3 bytes instead of 256 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(lying)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("lying length prefix decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("lying 256 MiB length prefix allocated %d bytes; incremental read should cap near one chunk", grew)
	}
}

// TestReadRegionNegativeSize is the regression test for the region
// bounds guard: crafted MemRegions with negative sizes or offsets must
// error, not panic make([]byte, -1) or slice out of range.
func TestReadRegionNegativeSize(t *testing.T) {
	buf := core.NewSharedVariableBuffer()
	buf.Register("b", make([]byte, 64))
	bad := []core.MemRegion{
		{Buffer: "b", Offset: 0, Size: -1},
		{Buffer: "b", Offset: -8, Size: 4},
		{Buffer: "b", Offset: 60, Size: 8},
		{Buffer: "b", Offset: 1 << 62, Size: 1 << 62}, // Offset+Size overflows int64
	}
	for _, r := range bad {
		if _, err := readRegion(buf, r); err == nil {
			t.Fatalf("readRegion(%+v) accepted an out-of-bounds region", r)
		}
	}
	if _, err := readRegion(buf, core.MemRegion{Buffer: "b", Offset: 8, Size: 8}); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
	if err := writeRegion(buf, RegionData{Buffer: "b", Offset: 60, Data: make([]byte, 8)}); err == nil {
		t.Fatal("writeRegion accepted a region past the buffer end")
	}
}

// FuzzCodec throws raw bytes at the frame decoder. It must never panic;
// whatever decodes successfully must re-encode to a frame that decodes
// to the same value (round-trip stability). Every input is decoded twice:
// into a fresh buffer, and into a recycled one — a receive buffer that
// has decoded every sample frame, with buffer names interned, and is
// poisoned before each use — and the two must agree, error for error and
// frame for frame.
func FuzzCodec(f *testing.F) {
	recycled, names := new(rxBuf), make(map[string]string)
	for _, fr := range sampleFrames() {
		wire, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		if _, err := decodeFrame(bufio.NewReader(bytes.NewReader(wire)), recycled, names); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{0x00})
	f.Add([]byte{protoVersion<<4 | byte(ftExecBatch), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(badModeOpenProg)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		recycled.poison()
		again, againErr := decodeFrame(bufio.NewReader(bytes.NewReader(data)), recycled, names)
		if fmt.Sprint(err) != fmt.Sprint(againErr) {
			t.Fatalf("fresh decode: %v; recycled decode: %v", err, againErr)
		}
		if err != nil {
			return
		}
		normalizeFrame(&again)
		wire, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame %+v failed to re-encode: %v", fr, err)
		}
		fr2, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		normalizeFrame(&fr)
		normalizeFrame(&fr2)
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round trip drift:\nfirst  %+v\nsecond %+v", fr, fr2)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("recycled decode differs:\nfresh    %+v\nrecycled %+v", fr, again)
		}
	})
}
