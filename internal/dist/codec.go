package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"tflux/internal/core"
)

// Wire format
//
// Every frame is one length-prefixed binary record, written with a
// single Write call:
//
//	byte 0    tag: high nibble = protocol version, low nibble = frame type
//	bytes 1+  uvarint payload length
//	bytes …   payload
//
// The tag byte is validated before anything else, so a peer speaking a
// different protocol version (or the old gob framing) fails the
// handshake with a clear error instead of desynchronizing mid-stream.
// Integers are unsigned varints; byte strings are uvarint-length-
// prefixed. Region payloads are appended straight from their source
// buffers into the frame buffer — no intermediate per-region copies —
// and frame buffers are pooled.
//
// The receive side allocates nothing per frame in the steady state: each
// link decodes into a receive buffer (rxBuf) taken from a pool — payload,
// decoded records and one region arena — and interns region buffer names
// in a table of its own. Decoded regions alias the payload, so a
// frame is valid until whoever consumes it hands it back with
// link.release; after that nothing of it may be read or retained. Frames
// that are never released — the service protocol's, whose regions end up
// in a Submit or a client's Outcome — are decoded into buffers of their
// own, so they take nothing out of the pool.
const (
	// protoVersion 2 added program multiplexing: Exec/Done carry the
	// owning program id, OpenProg/ProgAck/CloseProg manage per-program
	// worker replicas, and Submit/Accept/Reject/Result carry the
	// client↔daemon service protocol. Version 4 retires version 3's
	// install-then-open-by-hash pair: every OpenProg carries its spec and
	// a flag saying whether the worker may pool the replica under it, and
	// a successful open is no longer acknowledged.
	protoVersion = 4
	// maxFrame caps a frame's declared payload size. The decoder also
	// reads payloads incrementally, so a lying length prefix cannot
	// force a large allocation without the peer actually sending the
	// bytes.
	maxFrame = 1 << 28
	// frameHeader is the space reserved at the front of a pooled frame
	// buffer for the tag byte and the payload-length varint.
	frameHeader = 1 + binary.MaxVarintLen32
	// pooledFrameCap is the largest frame buffer returned to the pool;
	// bigger ones (huge region payloads) are left to the GC.
	pooledFrameCap = 4 << 20
	// readChunk is the step size for incremental payload reads.
	readChunk = 64 << 10
	// pooledRecords is the most Execs, Dones or arena regions a released
	// receive buffer keeps; one that held more goes to the GC with its
	// payload (a 4 MiB payload can decode into ~800 K empty Execs).
	pooledRecords = 1 << 16
	// maxInterned bounds each link's table of interned buffer names: a
	// peer that sends more names gets the rest as plain strings, not a
	// growing table.
	maxInterned = 256
)

// frameType identifies a frame's payload layout (low nibble of the tag).
type frameType byte

const (
	ftHello frameType = 1 + iota
	ftExecBatch
	ftDoneBatch
	ftShutdown
	ftPing
	ftPong
	// Coordinator ↔ worker program lifecycle (protocol v2).
	ftOpenProg
	ftProgAck
	ftCloseProg
	// Client ↔ daemon service protocol (protocol v2).
	ftSubmit
	ftAccept
	ftReject
	ftResult
)

func (t frameType) String() string {
	switch t {
	case ftHello:
		return "Hello"
	case ftExecBatch:
		return "ExecBatch"
	case ftDoneBatch:
		return "DoneBatch"
	case ftShutdown:
		return "Shutdown"
	case ftPing:
		return "Ping"
	case ftPong:
		return "Pong"
	case ftOpenProg:
		return "OpenProg"
	case ftProgAck:
		return "ProgAck"
	case ftCloseProg:
		return "CloseProg"
	case ftSubmit:
		return "Submit"
	case ftAccept:
		return "Accept"
	case ftReject:
		return "Reject"
	case ftResult:
		return "Result"
	}
	return fmt.Sprintf("frameType(%d)", byte(t))
}

// frame is one decoded wire frame; typ selects which fields are set.
type frame struct {
	typ   frameType
	hello Hello
	execs []Exec
	dones []Done
	seq   int64 // Ping / Pong

	open      OpenProg // OpenProg
	ack       ProgAck  // ProgAck
	closeProg uint32   // CloseProg
	submit    Submit   // Submit
	accept    Accept   // Accept
	reject    Reject   // Reject
	result    Result   // Result

	// rx is the receive buffer the frame was decoded into: every slice
	// above aliases it. Hand it back with rx.release once nothing reads
	// the frame any more.
	rx *rxBuf
}

// rxBuf is the storage one received frame is decoded into: the payload
// bytes, the decoded Execs or Dones, and one arena behind every decoded
// region list. Region Data aliases payload. A released rxBuf lends all
// four, capacity kept, to the next frame decoded into it.
type rxBuf struct {
	payload []byte
	execs   []Exec
	dones   []Done
	regions []RegionData
}

// rxPool recycles released receive buffers. Like framePool on the encode
// side it is process-wide, so a link that lives for one session — every
// link of RunLocal — starts from buffers an earlier link grew.
var rxPool = sync.Pool{New: func() any { return new(rxBuf) }}

// release hands a received frame's buffer back to rxPool; nothing decoded
// into it may be read afterwards. Buffers beyond the pooled sizes go to
// the GC.
func (rx *rxBuf) release() {
	if poisonReleased.Load() {
		rx.poison()
	}
	if cap(rx.payload) <= pooledFrameCap && max(cap(rx.execs), cap(rx.dones), cap(rx.regions)) <= pooledRecords {
		rxPool.Put(rx)
	}
}

// poisonReleased, set only by tests through setPoisonReleased, makes
// every release overwrite the receive buffer — payload bytes with 0xA5,
// decoded records with values no honest frame carries — so that a frame
// read after its release fails loudly instead of quietly reading the next
// frame's bytes. The Fleet poisons each lease it frees the same way
// (lease.poison). poisoned counts the receive buffers poisoned.
var (
	poisonReleased atomic.Bool
	poisoned       atomic.Int64
)

// setPoisonReleased turns the release hook on or off and returns how many
// releases it has poisoned so far, so a test can check that the hook ran.
// Only tests call it: this package's directly, those of packages above
// dist (internal/serve) by go:linkname, which fails to link if it is
// renamed.
func setPoisonReleased(on bool) int64 {
	poisonReleased.Store(on)
	return poisoned.Load()
}

// poison overwrites everything rx holds, to its capacity, and counts rx
// in poisoned.
func (rx *rxBuf) poison() {
	w := uint64(0xA5A5A5A5A5A5A5A5) // a variable, so the signed conversions wrap
	payload, regions := rx.payload[:cap(rx.payload)], rx.regions[:cap(rx.regions)]
	execs, dones := rx.execs[:cap(rx.execs)], rx.dones[:cap(rx.dones)]
	for i := range payload {
		payload[i] = byte(w)
	}
	for i := range regions {
		regions[i] = RegionData{Buffer: "\xA5", Offset: int64(w), Ver: w, Size: int64(w)}
	}
	inst := core.Instance{Thread: core.ThreadID(w), Ctx: core.Context(w)}
	for i := range execs {
		execs[i] = Exec{Prog: uint32(w), Inst: inst, Kernel: int(w)}
	}
	for i := range dones {
		dones[i] = Done{Prog: uint32(w), Inst: inst, Kernel: int(w), Err: "\xA5"}
	}
	poisoned.Add(1)
}

// framePool recycles encode-side buffers; each holds header space plus
// the growing payload.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, frameHeader, readChunk)
		return &b
	},
}

// ----- encoding -----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRegion encodes one import/export region. Ref regions ship only
// their key and version; full regions append the payload bytes directly
// from rd.Data (which may alias the canonical buffer) into the frame.
func appendRegion(b []byte, rd *RegionData) []byte {
	b = appendString(b, rd.Buffer)
	b = appendUvarint(b, uint64(rd.Offset))
	if rd.Ref {
		b = append(b, 1)
		b = appendUvarint(b, rd.Ver)
		return appendUvarint(b, uint64(rd.Size))
	}
	b = append(b, 0)
	b = appendUvarint(b, rd.Ver)
	return appendBytes(b, rd.Data)
}

func appendExec(b []byte, ex *Exec) []byte {
	b = appendUvarint(b, uint64(ex.Prog))
	b = appendUvarint(b, uint64(ex.Inst.Thread))
	b = appendUvarint(b, uint64(ex.Inst.Ctx))
	b = appendUvarint(b, uint64(ex.Kernel))
	b = appendUvarint(b, uint64(len(ex.Imports)))
	for i := range ex.Imports {
		b = appendRegion(b, &ex.Imports[i])
	}
	return b
}

func appendDone(b []byte, d *Done) []byte {
	b = appendUvarint(b, uint64(d.Prog))
	b = appendUvarint(b, uint64(d.Inst.Thread))
	b = appendUvarint(b, uint64(d.Inst.Ctx))
	b = appendUvarint(b, uint64(d.Kernel))
	b = appendString(b, d.Err)
	b = appendUvarint(b, uint64(len(d.Exports)))
	for i := range d.Exports {
		b = appendRegion(b, &d.Exports[i])
	}
	return b
}

// appendSpec encodes a ProgramSpec. Param is encoded as the two's
// complement uint64 so negative size parameters survive the round trip.
func appendSpec(b []byte, sp *ProgramSpec) []byte {
	b = appendString(b, sp.Name)
	b = appendUvarint(b, uint64(int64(sp.Param)))
	b = appendUvarint(b, uint64(sp.Kernels))
	return appendUvarint(b, uint64(sp.Unroll))
}

func appendRegions(b []byte, regions []RegionData) []byte {
	b = appendUvarint(b, uint64(len(regions)))
	for i := range regions {
		b = appendRegion(b, &regions[i])
	}
	return b
}

// finishFrame writes the tag and payload-length varint right-aligned
// into the reserved header space and returns the wire-ready slice.
func finishFrame(buf []byte, ft frameType) ([]byte, error) {
	payload := len(buf) - frameHeader
	if payload > maxFrame {
		return nil, fmt.Errorf("dist: %v frame payload %d exceeds limit %d", ft, payload, maxFrame)
	}
	var hdr [frameHeader]byte
	n := binary.PutUvarint(hdr[:], uint64(payload))
	start := frameHeader - 1 - n
	buf[start] = protoVersion<<4 | byte(ft)
	copy(buf[start+1:frameHeader], hdr[:n])
	return buf[start:], nil
}

// ----- decoding -----

// wireReader is a bounds-checked cursor over one frame's payload. All
// reads after an error return zero values; the first error sticks.
// Decoded regions are appended to rx's arena, and buffer names are
// interned in names.
type wireReader struct {
	b     []byte
	off   int
	err   error
	rx    *rxBuf
	names map[string]string
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: malformed frame: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// length reads a uvarint that counts items or bytes still to come in
// this payload; anything exceeding the remaining bytes is malformed,
// which also bounds allocations to the bytes actually received.
func (r *wireReader) length(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.fail("%s count %d exceeds %d remaining payload bytes", what, v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// bytes returns the next length-prefixed byte string as a subslice of
// the payload (no copy; the payload buffer is owned by the frame).
func (r *wireReader) bytes() []byte {
	n := r.length("byte string")
	if r.err != nil {
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *wireReader) str() string { return string(r.bytes()) }

// name reads a region's buffer name through the intern table: a name
// seen before costs no allocation (the m[string(b)] lookup does not
// copy).
func (r *wireReader) name() string {
	b := r.bytes()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.names) < maxInterned {
		r.names[s] = s
	}
	return s
}

func (r *wireReader) region(rd *RegionData) {
	rd.Buffer = r.name()
	rd.Offset = int64(r.uvarint())
	mode := r.byte()
	rd.Ver = r.uvarint()
	switch mode {
	case 0:
		rd.Data = r.bytes()
		rd.Size = int64(len(rd.Data))
	case 1:
		rd.Ref = true
		rd.Size = int64(r.uvarint())
		if rd.Size > maxFrame {
			r.fail("region ref size %d exceeds limit %d", rd.Size, maxFrame)
		}
	default:
		r.fail("unknown region mode %d", mode)
	}
	if rd.Offset < 0 || rd.Size < 0 {
		r.fail("region [%d,+%d) overflows", rd.Offset, rd.Size)
	}
}

func (r *wireReader) spec(sp *ProgramSpec) {
	sp.Name = r.str()
	sp.Param = int(int64(r.uvarint()))
	sp.Kernels = int(r.uvarint())
	sp.Unroll = int(r.uvarint())
}

// regions decodes a counted region list into the arena and returns it,
// capacity cut at its end (nil for none).
func (r *wireReader) regions(what string) []RegionData {
	n := r.length(what)
	arena := r.rx.regions
	start := len(arena)
	for i := 0; i < n && r.err == nil; i++ {
		arena = append(arena, RegionData{})
		r.region(&arena[len(arena)-1])
	}
	r.rx.regions = arena
	if len(arena) == start {
		return nil
	}
	return arena[start:len(arena):len(arena)]
}

func (r *wireReader) exec(ex *Exec) {
	ex.Prog = uint32(r.uvarint())
	ex.Inst.Thread = core.ThreadID(r.uvarint())
	ex.Inst.Ctx = core.Context(r.uvarint())
	ex.Kernel = int(r.uvarint())
	ex.Imports = r.regions("import region")
}

func (r *wireReader) done(d *Done) {
	d.Prog = uint32(r.uvarint())
	d.Inst.Thread = core.ThreadID(r.uvarint())
	d.Inst.Ctx = core.Context(r.uvarint())
	d.Kernel = int(r.uvarint())
	d.Err = r.str()
	d.Exports = r.regions("export region")
}

// parseFrame decodes rx.payload into rx's records, interning buffer names
// in names. Region data aliases the payload, so the returned frame is
// valid until rx is released, and none of it may be kept past that.
func parseFrame(ft frameType, rx *rxBuf, names map[string]string) (frame, error) {
	f := frame{typ: ft, rx: rx}
	r := &wireReader{b: rx.payload, rx: rx, names: names}
	rx.execs, rx.dones, rx.regions = rx.execs[:0], rx.dones[:0], rx.regions[:0]
	switch ft {
	case ftHello:
		f.hello.Kernels = int(r.uvarint())
	case ftExecBatch:
		n := r.length("exec")
		for i := 0; i < n && r.err == nil; i++ {
			rx.execs = append(rx.execs, Exec{})
			r.exec(&rx.execs[i])
		}
		f.execs = rx.execs
	case ftDoneBatch:
		n := r.length("done")
		for i := 0; i < n && r.err == nil; i++ {
			rx.dones = append(rx.dones, Done{})
			r.done(&rx.dones[i])
		}
		f.dones = rx.dones
	case ftShutdown:
		// no payload
	case ftPing, ftPong:
		f.seq = int64(r.uvarint())
	case ftOpenProg:
		f.open.Prog = uint32(r.uvarint())
		mode := r.byte()
		if mode > 1 {
			r.fail("unknown OpenProg mode %d", mode)
		}
		f.open.Pooled = mode == 1
		r.spec(&f.open.Spec)
	case ftProgAck:
		f.ack.Prog = uint32(r.uvarint())
		f.ack.Err = r.str()
	case ftCloseProg:
		f.closeProg = uint32(r.uvarint())
	case ftSubmit:
		f.submit.Seq = r.uvarint()
		f.submit.Tenant = r.str()
		r.spec(&f.submit.Spec)
		f.submit.Regions = r.regions("submit region")
	case ftAccept:
		f.accept.Seq = r.uvarint()
		f.accept.Prog = uint32(r.uvarint())
	case ftReject:
		f.reject.Seq = r.uvarint()
		f.reject.Reason = r.str()
	case ftResult:
		f.result.Prog = uint32(r.uvarint())
		f.result.Err = r.str()
		f.result.ElapsedNS = r.uvarint()
		f.result.Failovers = r.uvarint()
		f.result.Retries = r.uvarint()
		f.result.Regions = r.regions("result region")
	default:
		return f, fmt.Errorf("dist: unknown frame type 0x%x", byte(ft))
	}
	if r.err != nil {
		return f, r.err
	}
	if r.off != len(r.b) {
		return f, fmt.Errorf("dist: %v frame has %d trailing bytes", ft, len(r.b)-r.off)
	}
	return f, nil
}

// decodeFrame reads one frame from br into rx, reusing what rx holds. The
// payload is read incrementally in readChunk steps so an adversarial
// length prefix cannot force a large allocation ahead of the bytes
// actually arriving: rx's capacity is reused, but never grown past them.
func decodeFrame(br *bufio.Reader, rx *rxBuf, names map[string]string) (frame, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return frame{}, err
	}
	if tag>>4 != protoVersion {
		return frame{}, fmt.Errorf("dist: bad frame tag 0x%02x: peer speaks protocol version %d, this side %d (incompatible wire protocol)", tag, tag>>4, protoVersion)
	}
	ft := frameType(tag & 0x0f)
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return frame{}, fmt.Errorf("dist: reading %v frame length: %w", ft, err)
	}
	if size > maxFrame {
		return frame{}, fmt.Errorf("dist: %v frame declares %d payload bytes, limit %d", ft, size, maxFrame)
	}
	payload := rx.payload[:0]
	for len(payload) < int(size) {
		n := min(int(size)-len(payload), readChunk)
		if cap(payload) < len(payload)+n {
			grown := make([]byte, len(payload), min(int(size), 2*cap(payload)+n))
			copy(grown, payload)
			payload = grown
		}
		start := len(payload)
		payload = payload[:start+n]
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, fmt.Errorf("dist: reading %v frame payload: %w", ft, err)
		}
	}
	rx.payload = payload
	return parseFrame(ft, rx, names)
}
