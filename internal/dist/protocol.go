package dist

import (
	"bufio"
	"net"
	"sync"
	"time"

	"tflux/internal/core"
)

// RegionData is one shared-buffer region on the wire. Either the full
// bytes are shipped (Data set, Ref false) or — for imports whose cached
// copy on the receiving worker is current — only a (key, version)
// reference (Ref true, Size set, no bytes).
type RegionData struct {
	Buffer string
	Offset int64
	Data   []byte
	// Ver is the coordinator-tracked version of this region's content;
	// the worker caches full payloads under it and resolves refs
	// against it. Zero means "uncached" (cache disabled or an export).
	Ver uint64
	// Ref marks a cache reference: no bytes shipped, the worker stages
	// its cached copy. Size carries the region length.
	Ref  bool
	Size int64
}

// regionKey identifies a cached region: the exact (buffer, offset, size)
// triple a template's Access model declares.
type regionKey struct {
	buffer string
	offset int64
	size   int64
}

func (rd *RegionData) key() regionKey {
	return regionKey{buffer: rd.Buffer, offset: rd.Offset, size: rd.Size}
}

// Hello is the worker's handshake: how many Kernels the node hosts.
type Hello struct {
	Kernels int
}

// Exec dispatches one DThread instance to a worker, with its import
// regions (full bytes or cache references). Execs travel coalesced in
// ExecBatch frames; batches may interleave Execs of different programs.
type Exec struct {
	Prog    uint32 // program (session) id the instance belongs to
	Inst    core.Instance
	Kernel  int // node-local kernel index
	Imports []RegionData
}

// Done reports a completed instance with the bytes of its export
// regions. Dones travel coalesced in DoneBatch frames.
type Done struct {
	Prog    uint32 // program (session) id, echoed from the Exec
	Inst    core.Instance
	Kernel  int // node-local kernel index
	Exports []RegionData
	// Err carries a body panic or staging failure; non-empty aborts the
	// owning program's run.
	Err string
}

// ProgramSpec names a DDM program by construction recipe rather than by
// value: DThread bodies are Go functions and cannot travel on the wire,
// so both the daemon and its workers resolve the spec through a Resolver
// registry and build structurally identical replicas locally.
type ProgramSpec struct {
	Name    string // workload/registry key, e.g. "MMULT"
	Param   int    // problem-size parameter passed to the builder
	Kernels int    // work-distribution hint used when building
	Unroll  int    // DThread granularity (paper's loop-unrolling factor)
}

// Hash returns FNV-1a 64 over the spec's canonical wire encoding
// (appendSpec), which length-prefixes the name, so two distinct specs
// cannot alias by field concatenation. Its only use is OpenReq.Hash, where
// a non-zero value asserts that Spec is the program's identity; the value
// does not travel, and workers pool replicas by the spec itself.
func (sp *ProgramSpec) Hash() uint64 {
	var stack [64]byte
	b := appendSpec(stack[:0], sp)
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// OpenProg opens a program replica on a worker before any of its Execs
// arrive. Frame ordering on the link guarantees the worker has the
// replica first, so no acknowledgement round trip gates dispatch. Pooled
// says Spec is the program's whole identity: the worker may hand the
// session an idle replica of the same spec, restored to its build-time
// bytes, and takes the replica back at CloseProg. Without it the worker
// builds a replica for this session alone.
type OpenProg struct {
	Prog   uint32
	Spec   ProgramSpec
	Pooled bool
}

// ProgAck reports that a worker could not resolve or build the replica
// an OpenProg asked for; Err fails the program's session. A successful
// open sends nothing.
type ProgAck struct {
	Prog uint32
	Err  string
}

// Submit asks a tfluxd daemon to run one DDM program. Regions carry
// initial canonical buffer contents to apply over the builder's output
// (full payloads only — cache references are rejected at admission).
type Submit struct {
	Seq     uint64 // client-chosen id echoed in Accept/Reject
	Tenant  string // quota/fairness accounting key
	Spec    ProgramSpec
	Regions []RegionData
}

// Accept admits a submission: Prog is the daemon-assigned program id
// that the eventual Result frame will carry.
type Accept struct {
	Seq  uint64
	Prog uint32
}

// Reject declines a submission at admission time; Reason carries the
// quota/capacity/lint explanation (including ddmlint findings).
type Reject struct {
	Seq    uint64
	Reason string
}

// Result reports a finished program back to the submitting client with
// the final bytes of its declared buffers and its per-program failover
// accounting.
type Result struct {
	Prog      uint32
	Err       string // non-empty: the run failed after admission
	ElapsedNS uint64 // run time on the fleet (queueing excluded)
	Failovers uint64 // node losses observed while this program ran
	Retries   uint64 // this program's re-dispatched instances
	Regions   []RegionData
}

// link wraps a connection with the binary codec, a buffered reader, and
// a write lock so multiple goroutines can send frames. A non-zero
// wtimeout bounds each frame send, so a stalled peer surfaces as an
// error instead of blocking the sender forever. Each frame goes out in
// one Write call, so fault injectors (internal/chaos) that count or
// sever writes operate on whole frames — including mid-batch severs.
//
// One goroutine receives; frames come out of recv decoded into pooled
// receive buffers, which whoever finishes with the frame hands back with
// rxBuf.release, on any goroutine.
type link struct {
	conn     net.Conn
	br       *bufio.Reader
	wmu      sync.Mutex
	wtimeout time.Duration
	names    map[string]string // interned region buffer names; the receiver's alone
}

func newLink(conn net.Conn) *link {
	return &link{conn: conn, br: bufio.NewReaderSize(conn, readChunk)}
}

// send encodes one frame into a pooled buffer via appendPayload and
// writes it out atomically.
func (l *link) send(ft frameType, appendPayload func([]byte) []byte) error {
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:frameHeader]
	if appendPayload != nil {
		buf = appendPayload(buf)
	}
	wire, err := finishFrame(buf, ft)
	if err == nil {
		l.wmu.Lock()
		if l.wtimeout > 0 {
			l.conn.SetWriteDeadline(time.Now().Add(l.wtimeout)) //nolint:errcheck
		}
		_, err = l.conn.Write(wire)
		l.wmu.Unlock()
	}
	if cap(buf) <= pooledFrameCap {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

func (l *link) sendHello(kernels int) error {
	return l.send(ftHello, func(b []byte) []byte { return appendUvarint(b, uint64(kernels)) })
}

func (l *link) sendExecBatch(execs []Exec) error {
	return l.send(ftExecBatch, func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(execs)))
		for i := range execs {
			b = appendExec(b, &execs[i])
		}
		return b
	})
}

// sendDoneRecords sends one DoneBatch frame of Dones already encoded by
// appendDone, one record each.
func (l *link) sendDoneRecords(recs []*[]byte) error {
	return l.send(ftDoneBatch, func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(recs)))
		for _, rec := range recs {
			b = append(b, *rec...)
		}
		return b
	})
}

func (l *link) sendShutdown() error { return l.send(ftShutdown, nil) }

func (l *link) sendOpenProg(prog uint32, spec ProgramSpec, pooled bool) error {
	var mode byte // 0: a replica for this session alone; 1: pooled by spec
	if pooled {
		mode = 1
	}
	return l.send(ftOpenProg, func(b []byte) []byte {
		b = appendUvarint(b, uint64(prog))
		b = append(b, mode)
		return appendSpec(b, &spec)
	})
}

func (l *link) sendProgAck(prog uint32, errText string) error {
	return l.send(ftProgAck, func(b []byte) []byte {
		b = appendUvarint(b, uint64(prog))
		return appendString(b, errText)
	})
}

func (l *link) sendCloseProg(prog uint32) error {
	return l.send(ftCloseProg, func(b []byte) []byte { return appendUvarint(b, uint64(prog)) })
}

func (l *link) sendSubmit(s *Submit) error {
	return l.send(ftSubmit, func(b []byte) []byte {
		b = appendUvarint(b, s.Seq)
		b = appendString(b, s.Tenant)
		b = appendSpec(b, &s.Spec)
		return appendRegions(b, s.Regions)
	})
}

func (l *link) sendAccept(seq uint64, prog uint32) error {
	return l.send(ftAccept, func(b []byte) []byte {
		b = appendUvarint(b, seq)
		return appendUvarint(b, uint64(prog))
	})
}

func (l *link) sendReject(seq uint64, reason string) error {
	return l.send(ftReject, func(b []byte) []byte {
		b = appendUvarint(b, seq)
		return appendString(b, reason)
	})
}

func (l *link) sendResult(res *Result) error {
	return l.send(ftResult, func(b []byte) []byte {
		b = appendUvarint(b, uint64(res.Prog))
		b = appendString(b, res.Err)
		b = appendUvarint(b, res.ElapsedNS)
		b = appendUvarint(b, res.Failovers)
		b = appendUvarint(b, res.Retries)
		return appendRegions(b, res.Regions)
	})
}

func (l *link) sendPing(seq int64) error {
	return l.send(ftPing, func(b []byte) []byte { return appendUvarint(b, uint64(seq)) })
}

func (l *link) sendPong(seq int64) error {
	return l.send(ftPong, func(b []byte) []byte { return appendUvarint(b, uint64(seq)) })
}

// recv reads the next frame into a pooled receive buffer.
func (l *link) recv() (frame, error) { return l.recvInto(rxPool.Get().(*rxBuf)) }

// recvInto reads the next frame into rx.
func (l *link) recvInto(rx *rxBuf) (frame, error) {
	if l.names == nil {
		l.names = make(map[string]string)
	}
	return decodeFrame(l.br, rx, l.names)
}

func (l *link) close() error { return l.conn.Close() }

// readRegion resolves a region of a buffer registry to RegionData whose
// Data aliases the buffer: nothing is copied, so the caller must encode
// or copy it before the region can be written again. A crafted MemRegion
// — negative Size, or an Offset that would wrap Offset+Size — is an error
// from the registry's one bounds check, not a panic.
func readRegion(svb *core.SharedVariableBuffer, r core.MemRegion) (RegionData, error) {
	b, err := svb.Slice(r.Buffer, r.Offset, r.Size)
	if err != nil {
		return RegionData{}, err
	}
	return RegionData{Buffer: r.Buffer, Offset: r.Offset, Data: b, Size: r.Size}, nil
}

// writeRegion applies region bytes into a buffer registry.
func writeRegion(svb *core.SharedVariableBuffer, rd RegionData) error {
	dst, err := svb.Slice(rd.Buffer, rd.Offset, int64(len(rd.Data)))
	if err != nil {
		return err
	}
	copy(dst, rd.Data)
	return nil
}
