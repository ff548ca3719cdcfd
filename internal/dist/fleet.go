package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// A Fleet owns a set of worker connections — handshake, liveness,
// heartbeats, per-node batching windows — independently of any single
// program run, so the same workers can execute many DDM programs, one
// after another (Run) or concurrently multiplexed (Start/Open, the
// tfluxd path). CoordinateOpts is a thin wrapper that builds a Fleet for
// one program and closes it; tfluxd keeps one Fleet alive for the
// daemon's lifetime.
//
// Each admitted program runs as a session: its own TSU state, canonical
// buffers, leases, region-cache version space and Stats. Sessions share
// the per-node ExecBatch accumulators and in-flight windows; when a
// node's window is full, ready instances are deferred into per-session
// queues drained by weighted round-robin, so one enormous program
// cannot starve a small one. Failover (PR-3 leases, heartbeats,
// backoff) is scoped per (program, instance): a node loss re-dispatches
// every open session's leases on that node and charges each session's
// own failover counters.
//
// Concurrency model: all session and dispatch state is owned by a
// single event loop (run inline by Run, or on a background goroutine by
// Start). Open and Close communicate with the loop through a
// mutex-guarded control queue, never by touching loop state.
type Fleet struct {
	opt  Options
	sink obs.Sink
	n    int

	links        []*link
	kernelBase   []int // global id of each node's kernel 0
	nodeKernels  []int // kernels hosted per node
	totalKernels int

	events   chan fleetEvent
	stopCh   chan struct{}
	lastSeen []atomic.Int64

	ctrlMu  sync.Mutex
	ctrl    []fleetCtrl
	ctrlSig chan struct{}

	started   atomic.Bool // background loop (Start) is running
	closed    atomic.Bool
	aliveAtom atomic.Int64 // published copy of aliveN for dashboards
	loopWG    sync.WaitGroup
	closeOnce sync.Once

	// ----- loop-owned state: only the event loop may touch these -----
	sessions map[uint32]*session
	nodes    []nodeIO
	alive    []bool
	aliveN   int
	lastLoss error
	genCtr   int64
	runSeq   uint32 // next session id handed out by Run
	stopped  bool   // set by the stop control message
	cacheOn  bool
	// freeTables parks the region tables of closed sessions, emptied but
	// with their grown arrays, for the next sessions to track in.
	freeTables []*regionTable
	// freeLeases parks the leases of completed instances and closed
	// sessions for enqueueExec to take (putLease). No pointer to a lease
	// outlives its entry in a session's map: a re-dispatch timer carries
	// (prog, inst, gen) and looks the lease up again, and genCtr only
	// grows, so a stale timer never matches a reused lease.
	freeLeases []*lease
	// exports holds, for the Done being applied, what each export was
	// validated against; reused across Dones.
	exports []validExport
	// ready is the stack completeAndDispatch collects readiness on:
	// dispatch recurses through service instances, so each call appends
	// at the current length, walks only its own tail and truncates it
	// again. Shared by every session, it keeps its grown array.
	ready []tsu.Ready

	aliveGauge    []*obs.Gauge
	inflightGauge []*obs.Gauge
	rpcHist       *obs.Histogram
	foHist        *obs.Histogram
	batchHist     *obs.Histogram
	cBytesOut     *obs.Counter
	cBytesIn      *obs.Counter
	cBytesSaved   *obs.Counter
	cMessages     *obs.Counter
	cBatches      *obs.Counter
	cCacheHits    *obs.Counter
	cCacheMisses  *obs.Counter
	cFailovers    *obs.Counter
	cRetries      *obs.Counter
	cDupeDones    *obs.Counter
	cUnknownDones *obs.Counter
	cTSUDec       *obs.Counter
	cTSUFired     *obs.Counter
}

// session is one program admitted onto the fleet: its TSU state, its
// canonical buffers, and every piece of bookkeeping that was per-run in
// the single-program coordinator — leases, region versions and what each
// node caches of them, stats. Buffer names are only meaningful within a
// session, so the region version space is private too.
type session struct {
	id     uint32
	svb    *core.SharedVariableBuffer
	state  *tsu.State
	stats  *Stats
	weight int
	onDone func(st *Stats, err error)

	leases  map[core.Instance]*lease
	regions *core.RegionIndex // what each instance imports and exports
	track   *regionTable      // nil with the region cache off, and once closed
	timers  []*time.Timer
	start   time.Time
	closed  bool
}

// validExport is one export of a Done that passed validation: where in
// the session's canonical buffers it lands.
type validExport struct {
	dst []byte
	buf int32 // the buffer's position in the session's RegionIndex
}

// OpenReq asks the fleet to run one program as a new session.
type OpenReq struct {
	Prog *core.Program
	SVB  *core.SharedVariableBuffer
	// Spec is shipped to workers in OpenProg so they can resolve and
	// build their replica. CoordinateOpts leaves it zero (workers built
	// their replica from a closure at Serve time).
	Spec ProgramSpec
	// Hash, when non-zero, asserts that Spec is the program's identity —
	// any two sessions opened with equal Specs run the same program from
	// the same build-time bytes — so workers may recycle a pooled replica
	// of Spec instead of rebuilding. Only zero or not is read; the value
	// does not travel (ProgramSpec.Hash supplies one).
	Hash uint64
	// Tables, when non-nil, supplies pre-built frozen TSU tables for the
	// program: the session acquires a pooled state (skipping validation
	// and thread-table construction, and reusing the SM arrays of an
	// earlier session) and releases it back to the pool at close. Ignored
	// unless it was built for exactly Prog and the fleet's kernel count.
	Tables *tsu.Tables
	// Weight is the session's share in the per-node weighted round-robin
	// over deferred ready instances; values < 1 mean 1.
	Weight int
	// OnDone is called from the fleet's event loop exactly once when the
	// session finishes. It must not block and must not call Run/Close
	// (Open is fine).
	OnDone func(st *Stats, err error)
}

// fleetCtrl is one control message from Open/Run/Close into the loop.
type fleetCtrl struct {
	id   uint32
	open *OpenReq
	stop bool
}

// fleetEvent is one occurrence the fleet's event loop reacts to.
// Exactly one of the cases is populated.
type fleetEvent struct {
	// A DoneBatch frame from node, in the receive buffer the loop releases
	// once the batch is applied, or a link/protocol failure when err !=
	// nil.
	rx   *rxBuf
	node int
	err  error
	// A heartbeat miss on node (no inbound traffic for the window).
	hbMiss bool
	// A ProgAck reporting a replica build failure for prog on node.
	ack    bool
	prog   uint32
	ackErr string
	// A scheduled re-dispatch of (prog, inst); gen guards stale timers.
	redispatch bool
	inst       core.Instance
	gen        int64
	// A periodic lease-expiry scan.
	leaseTick bool
}

// regionTable is the mutable half of a session's region-cache
// bookkeeping; the static half — which regions the program imports, as
// dense ids, and where each lies in its buffer — is the program's
// core.RegionIndex, learned once per program. Per id the session keeps
// the region's current version, which bumps whenever an applied export
// overlaps it, and the version each node caches (a node whose copy is
// current is sent a reference instead of the bytes). A region is tracked
// from its first ship: until then its version is 0 and exports pass it by,
// so it starts at 1 whatever was exported before — the versions a table
// that learned regions as they shipped would hand out.
type regionTable struct {
	nodes int
	idx   *core.RegionIndex // nil while parked
	ver   []uint64          // ver[id]: current version, counted from 1; 0 for untracked
	sent  []uint64          // sent[id*nodes+node]: version node holds; 0 for none
}

const (
	// maxParkedTables bounds Fleet.freeTables; a daemon has a handful of
	// sessions open at a time, and a table fits any session.
	maxParkedTables = 4
	// maxParkedRegions keeps one enormous program from pinning its
	// high-water mark for the fleet's lifetime: a table that tracked more
	// regions than this is left to the GC instead of being parked.
	maxParkedRegions = 1 << 16
)

func newRegionTable(nodes int) *regionTable {
	return &regionTable{nodes: nodes}
}

// open sizes the table for a session over idx, nothing tracked or held.
func (t *regionTable) open(idx *core.RegionIndex) {
	n := len(idx.Spans)
	t.idx = idx
	t.ver = slices.Grow(t.ver[:0], n)[:n]
	t.sent = slices.Grow(t.sent[:0], n*t.nodes)[:n*t.nodes]
	clear(t.ver)
	clear(t.sent)
}

// ship notes that an Exec bound for node imports region id, and returns
// the region's version and whether node already caches it at that
// version, so that a reference will do; if not, node holds it from now on.
func (t *regionTable) ship(id int32, node int) (ver uint64, cached bool) {
	if t.ver[id] == 0 {
		t.ver[id] = 1
	}
	ver = t.ver[id]
	held := &t.sent[int(id)*t.nodes+node]
	cached = *held == ver
	*held = ver
	return ver, cached
}

// bump advances the version of every tracked region of buffer buf that
// overlaps the applied export [o, e).
func (t *regionTable) bump(buf int32, o, e int64) {
	lo, hi, maxSize := t.idx.BufferSpans(buf)
	spans, ver := t.idx.Spans[lo:hi], t.ver[lo:hi]
	first := sort.Search(len(spans), func(i int) bool { return spans[i].Off > o-maxSize })
	for i, sp := range spans[first:] {
		if sp.Off >= e {
			break
		}
		if o < sp.Off+sp.Size && ver[first+i] != 0 {
			ver[first+i]++
		}
	}
}

// dropNode forgets everything node held: a lost node's cache is gone
// with its connection.
func (t *regionTable) dropNode(node int) {
	for i := node; i < len(t.sent); i += t.nodes {
		t.sent[i] = 0
	}
}

// reset empties the table for parking, keeping what it grew.
func (t *regionTable) reset() {
	t.idx, t.ver, t.sent = nil, t.ver[:0], t.sent[:0]
}

// nodeIO is the per-node dispatch state shared by every session: the
// accumulating ExecBatch, the in-flight window occupancy, and the ready
// instances deferred because the window is full — queued per session
// and drained by weighted round-robin.
type nodeIO struct {
	batch      []Exec
	imports    []RegionData // backs every batch[i].Imports; emptied with batch
	batchBytes int64        // payload bytes in batch (refs count nothing)
	inflight   int          // leased instances currently on the node (batched included)
	deferred   map[uint32][]tsu.Ready
	rr         []uint32       // sessions with deferred work, in rotation order
	credit     map[uint32]int // remaining WRR credit per session
}

// NewFleet performs the handshake with every worker connection and
// starts the fleet's reader, heartbeat and lease-scan goroutines. On
// error every connection is closed. The fleet owns the connections
// until Close.
func NewFleet(conns []net.Conn, opt Options) (*Fleet, error) {
	opt = opt.withDefaults()
	if len(conns) == 0 {
		return nil, errors.New("dist: no worker connections")
	}
	n := len(conns)
	reg := opt.Metrics
	f := &Fleet{
		opt:         opt,
		sink:        opt.Sink,
		n:           n,
		links:       make([]*link, n),
		kernelBase:  make([]int, n),
		nodeKernels: make([]int, n),
		lastSeen:    make([]atomic.Int64, n),
		ctrlSig:     make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		sessions:    make(map[uint32]*session),
		nodes:       make([]nodeIO, n),
		alive:       make([]bool, n),
		aliveN:      n,
		cacheOn:     !opt.DisableRegionCache,

		rpcHist:       reg.Histogram("dist.rpc_ns"),
		foHist:        reg.Histogram("dist.failover_ns"),
		batchHist:     reg.Histogram("dist.batch_size"),
		cBytesOut:     reg.Counter("dist.bytes_out"),
		cBytesIn:      reg.Counter("dist.bytes_in"),
		cBytesSaved:   reg.Counter("dist.bytes_saved"),
		cMessages:     reg.Counter("dist.messages"),
		cBatches:      reg.Counter("dist.batches"),
		cCacheHits:    reg.Counter("dist.region_cache_hits"),
		cCacheMisses:  reg.Counter("dist.region_cache_misses"),
		cFailovers:    reg.Counter("dist.failovers"),
		cRetries:      reg.Counter("dist.retries"),
		cDupeDones:    reg.Counter("dist.dupe_done"),
		cUnknownDones: reg.Counter("dist.unknown_done"),
		cTSUDec:       reg.Counter("tsu.decrements"),
		cTSUFired:     reg.Counter("tsu.fired"),
	}
	reg.Counter("dist.nodes").Set(int64(n))
	f.aliveAtom.Store(int64(n))

	for i, c := range conns {
		f.links[i] = newLink(c)
		f.links[i].wtimeout = writeTimeout
		// A connected-but-silent worker must fail the handshake with a
		// clear error, not hang forever. The tag check inside recv also
		// rejects peers speaking a different protocol version before
		// any state is built.
		c.SetReadDeadline(time.Now().Add(opt.HandshakeTimeout)) //nolint:errcheck
		fr, err := f.links[i].recv()
		if err != nil || fr.typ != ftHello {
			for _, cc := range conns {
				cc.Close() //nolint:errcheck // unblocking teardown
			}
			return nil, fmt.Errorf("dist: handshake with node %d failed (no Hello within %v): %v", i, opt.HandshakeTimeout, err)
		}
		c.SetReadDeadline(time.Time{}) //nolint:errcheck
		f.kernelBase[i] = f.totalKernels
		f.nodeKernels[i] = fr.hello.Kernels
		f.totalKernels += fr.hello.Kernels
	}
	f.events = make(chan fleetEvent, max(256, f.totalKernels*4+16))
	f.aliveGauge = make([]*obs.Gauge, n)
	f.inflightGauge = make([]*obs.Gauge, n)
	for i := range f.alive {
		f.alive[i] = true
		f.aliveGauge[i] = reg.Gauge(fmt.Sprintf("dist.node%d.alive", i))
		f.aliveGauge[i].Set(1)
		f.inflightGauge[i] = reg.Gauge(fmt.Sprintf("dist.node%d.inflight", i))
	}

	now := time.Now().UnixNano()
	for i := range f.lastSeen {
		f.lastSeen[i].Store(now)
	}
	for i, l := range f.links {
		go f.readLoop(i, l)
	}
	if opt.Heartbeat > 0 {
		for i, l := range f.links {
			go f.heartbeatLoop(i, l)
		}
	}
	if opt.LeaseTimeout > 0 {
		scan := opt.LeaseTimeout / 4
		if scan < time.Millisecond {
			scan = time.Millisecond
		}
		go func() {
			ticker := time.NewTicker(scan)
			defer ticker.Stop()
			for {
				select {
				case <-f.stopCh:
					return
				case <-ticker.C:
					f.push(fleetEvent{leaseTick: true})
				}
			}
		}()
	}
	return f, nil
}

// Nodes returns the fleet size.
func (f *Fleet) Nodes() int { return f.n }

// Kernels returns the total kernel count across the fleet.
func (f *Fleet) Kernels() int { return f.totalKernels }

// AliveNodes returns how many nodes the fleet currently considers live.
func (f *Fleet) AliveNodes() int { return int(f.aliveAtom.Load()) }

func (f *Fleet) push(ev fleetEvent) {
	select {
	case f.events <- ev:
	case <-f.stopCh:
	}
}

func (f *Fleet) readLoop(i int, l *link) {
	for {
		fr, err := l.recv()
		if err != nil {
			f.push(fleetEvent{node: i, err: err})
			return
		}
		f.lastSeen[i].Store(time.Now().UnixNano())
		switch fr.typ {
		case ftDoneBatch:
			f.push(fleetEvent{rx: fr.rx, node: i})
			continue
		case ftPong:
			// Liveness already recorded.
		case ftProgAck:
			if fr.ack.Err != "" {
				f.push(fleetEvent{ack: true, node: i, prog: fr.ack.Prog, ackErr: fr.ack.Err})
			}
		default:
			f.push(fleetEvent{node: i, err: fmt.Errorf("dist: unexpected frame %v from node %d", fr.typ, i)})
			return
		}
		fr.rx.release()
	}
}

func (f *Fleet) heartbeatLoop(i int, l *link) {
	window := time.Duration(f.opt.HeartbeatMisses) * f.opt.Heartbeat
	ticker := time.NewTicker(f.opt.Heartbeat)
	defer ticker.Stop()
	var seq int64
	for {
		select {
		case <-f.stopCh:
			return
		case <-ticker.C:
			if time.Since(time.Unix(0, f.lastSeen[i].Load())) > window {
				f.push(fleetEvent{node: i, hbMiss: true})
				return
			}
			seq++
			if err := l.sendPing(seq); err != nil {
				f.push(fleetEvent{node: i, err: fmt.Errorf("dist: ping node %d: %w", i, err)})
				return
			}
		}
	}
}

func (f *Fleet) enqueueCtrl(m fleetCtrl) {
	f.ctrlMu.Lock()
	f.ctrl = append(f.ctrl, m)
	f.ctrlMu.Unlock()
	select {
	case f.ctrlSig <- struct{}{}:
	default:
	}
}

func (f *Fleet) takeCtrl() []fleetCtrl {
	f.ctrlMu.Lock()
	defer f.ctrlMu.Unlock()
	msgs := f.ctrl
	f.ctrl = nil
	return msgs
}

// Run executes one program synchronously on the fleet, running the
// event loop inline. It may be called repeatedly — the whole point of a
// Fleet is that the worker connections survive between runs — but not
// concurrently, and not on a fleet whose loop was started with Start.
func (f *Fleet) Run(prog *core.Program, svb *core.SharedVariableBuffer) (*Stats, error) {
	if f.started.Load() {
		return nil, errors.New("dist: Fleet.Run on a started fleet (use Open)")
	}
	if f.closed.Load() {
		return nil, errors.New("dist: fleet closed")
	}
	var (
		st   *Stats
		rerr error
		done bool
	)
	id := f.runSeq
	f.runSeq++
	f.enqueueCtrl(fleetCtrl{id: id, open: &OpenReq{
		Prog: prog,
		SVB:  svb,
		OnDone: func(s *Stats, err error) {
			st, rerr, done = s, err, true
		},
	}})
	f.loop(func() bool { return done })
	return st, rerr
}

// Start runs the fleet's event loop on a background goroutine so
// multiple sessions can be multiplexed with Open. Idempotent.
func (f *Fleet) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	f.loopWG.Add(1)
	go func() {
		defer f.loopWG.Done()
		f.loop(nil)
	}()
}

// Open admits a program as a new session with the given id; the outcome
// arrives via req.OnDone. Ids must be unique among open sessions. Only
// valid after Start.
func (f *Fleet) Open(id uint32, req OpenReq) error {
	if f.closed.Load() {
		return errors.New("dist: fleet closed")
	}
	if !f.started.Load() {
		return errors.New("dist: Fleet.Open before Start")
	}
	r := req
	f.enqueueCtrl(fleetCtrl{id: id, open: &r})
	return nil
}

// Close stops the event loop, fails any still-open sessions, asks the
// surviving workers to shut down and closes every connection.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		if f.started.Load() {
			f.enqueueCtrl(fleetCtrl{stop: true})
			f.loopWG.Wait()
		}
		// The loop is not running past this point (Run callers only
		// Close after Run returns), so loop-owned state is safe to
		// touch. Unblock readers/heartbeats first so nothing waits on
		// the drained events channel.
		close(f.stopCh)
		err := errors.New("dist: fleet closed")
		for _, s := range f.snapshotSessions() {
			f.closeSession(s, err)
		}
		for i, l := range f.links {
			if f.alive[i] {
				l.sendShutdown() //nolint:errcheck // best effort
			}
			l.close() //nolint:errcheck
		}
	})
	return nil
}

// loop is the fleet's event loop. It drains control messages, then
// events; batches flush when their thresholds trip or when the loop is
// about to go idle, so bursts leave in coalesced frames and nothing
// waits on a timer. stop (may be nil) is polled between events — Run
// uses it to return once its session completes.
func (f *Fleet) loop(stop func() bool) {
	for {
		for _, m := range f.takeCtrl() {
			f.handleCtrl(m)
		}
		if f.stopped || (stop != nil && stop()) {
			return
		}
		var ev fleetEvent
		select {
		case ev = <-f.events:
		case <-f.ctrlSig:
			continue
		default:
			f.flushAll()
			select {
			case ev = <-f.events:
			case <-f.ctrlSig:
				continue
			}
		}
		f.handleEvent(ev)
	}
}

func (f *Fleet) handleCtrl(m fleetCtrl) {
	switch {
	case m.stop:
		f.stopped = true
	case m.open != nil:
		f.openSession(m.id, m.open)
	}
}

func (f *Fleet) handleEvent(ev fleetEvent) {
	switch {
	case ev.err != nil:
		f.markDead(ev.node, ev.err)
	case ev.hbMiss:
		f.markDead(ev.node, fmt.Errorf("heartbeat: no traffic for %v", time.Duration(f.opt.HeartbeatMisses)*f.opt.Heartbeat))
	case ev.ack:
		if s := f.sessions[ev.prog]; s != nil {
			f.closeSession(s, fmt.Errorf("dist: node %d failed to open program %d: %s", ev.node, ev.prog, ev.ackErr))
		}
	case ev.redispatch:
		f.redispatch(ev.prog, ev.inst, ev.gen)
	case ev.leaseTick:
		nowT := time.Now()
		for _, s := range f.snapshotSessions() {
			if s.closed {
				continue
			}
			for _, ls := range s.leases {
				if f.alive[ls.node] && nowT.Sub(ls.wall) > f.opt.LeaseTimeout {
					f.markDead(ls.node, fmt.Errorf("lease on %v expired after %v", ls.inst, f.opt.LeaseTimeout))
				}
			}
		}
	case ev.rx != nil:
		f.handleDoneBatch(ev.rx.dones, ev.node)
		// Every export was copied into canonical buffers; nothing keeps
		// the frame.
		ev.rx.release()
	}
}

// snapshotSessions copies the open-session set so handlers can iterate
// while closeSession mutates the map.
func (f *Fleet) snapshotSessions() []*session {
	out := make([]*session, 0, len(f.sessions))
	for _, s := range f.sessions {
		out = append(out, s)
	}
	return out
}

// openSession admits one program: builds its TSU state, validates its
// buffers, announces it to the workers and dispatches its Inlet.
func (f *Fleet) openSession(id uint32, req *OpenReq) {
	fail := func(err error) {
		if req.OnDone != nil {
			req.OnDone(nil, err)
		}
	}
	if _, dup := f.sessions[id]; dup {
		fail(fmt.Errorf("dist: program id %d already open", id))
		return
	}
	if err := req.SVB.Covers(req.Prog.Buffers); err != nil {
		fail(fmt.Errorf("dist: %w", err))
		return
	}
	var state *tsu.State
	if req.Tables != nil && req.Tables.Program() == req.Prog && req.Tables.Kernels() == f.totalKernels {
		state = req.Tables.Acquire()
	} else {
		var err error
		state, err = tsu.NewState(req.Prog, f.totalKernels)
		if err != nil {
			fail(err)
			return
		}
	}
	if f.aliveN == 0 {
		state.Release()
		fail(fmt.Errorf("dist: all %d nodes lost; last failure: %w", f.n, f.lastLoss))
		return
	}
	weight := req.Weight
	if weight < 1 {
		weight = 1
	}
	s := &session{
		id:     id,
		svb:    req.SVB,
		state:  state,
		stats:  &Stats{Nodes: make([]NodeStats, f.n)},
		weight: weight,
		onDone: req.OnDone,
		leases: make(map[core.Instance]*lease),
		// One model call per instance if this is the program's first
		// session and nothing linted it; none after that.
		regions: req.Prog.AccessTable().Regions(),
		start:   time.Now(),
	}
	if f.cacheOn {
		if k := len(f.freeTables); k > 0 {
			s.track, f.freeTables = f.freeTables[k-1], f.freeTables[:k-1]
		} else {
			s.track = newRegionTable(f.n)
		}
		s.track.open(s.regions)
	}
	for i := range s.stats.Nodes {
		s.stats.Nodes[i].Kernels = f.nodeKernels[i]
		if !f.alive[i] {
			s.stats.Nodes[i].Lost = true
			s.stats.Nodes[i].LostReason = "lost before program opened"
		}
	}
	f.sessions[id] = s
	// Announce the program before any of its Execs can be flushed; frame
	// ordering on each link guarantees the worker has the replica first,
	// so no ack round trip gates dispatch.
	for i, l := range f.links {
		if !f.alive[i] {
			continue
		}
		if err := l.sendOpenProg(id, req.Spec, req.Hash != 0); err != nil {
			f.markDead(i, fmt.Errorf("open program %d: %w", id, err))
			if s.closed {
				return // markDead lost the last node and failed the session
			}
		}
	}
	if err := f.dispatch(s, s.state.Start()); err != nil {
		f.closeSession(s, err)
	}
}

// closeSession finishes a session (err == nil: success), scrubs its
// queued work from the shared per-node state, tells workers to drop the
// replica, finalizes stats and fires the callback.
func (f *Fleet) closeSession(s *session, err error) {
	if s.closed {
		return
	}
	s.closed = true
	delete(f.sessions, s.id)
	if tab := s.track; tab != nil {
		s.track = nil
		if len(f.freeTables) < maxParkedTables && len(tab.ver) <= maxParkedRegions {
			tab.reset()
			f.freeTables = append(f.freeTables, tab)
		}
	}
	for _, t := range s.timers {
		t.Stop()
	}
	// Scrub its deferred and staged work so no further frames carry this
	// program, then release the window slots its in-flight leases still
	// occupy (dead nodes already zeroed theirs) and the leases themselves.
	for i := range f.nodes {
		nio := &f.nodes[i]
		if nio.deferred != nil {
			delete(nio.deferred, s.id)
			delete(nio.credit, s.id) // rr entry is dropped lazily by drainDeferred
		}
		if len(nio.batch) > 0 {
			// A scrubbed Exec's bytes will never be sent: take them out of
			// the batch's count, which dist.bytes_out is charged from.
			kept := nio.batch[:0]
			for _, ex := range nio.batch {
				if ex.Prog != s.id {
					kept = append(kept, ex)
				} else if ls := s.leases[ex.Inst]; ls != nil {
					nio.batchBytes -= ls.bytes
				}
			}
			nio.batch = kept
			if len(kept) == 0 {
				nio.imports, nio.batchBytes = nio.imports[:0], 0
			}
		}
	}
	for _, ls := range s.leases {
		if f.alive[ls.node] {
			f.nodes[ls.node].inflight--
			f.setInflight(ls.node)
		}
		f.putLease(ls)
	}
	clear(s.leases)
	for i, l := range f.links {
		if !f.alive[i] {
			continue
		}
		if cerr := l.sendCloseProg(s.id); cerr != nil {
			f.markDead(i, fmt.Errorf("close program %d: %w", s.id, cerr))
		}
	}
	s.stats.Elapsed = time.Since(s.start)
	s.stats.TSU = s.state.Stats()
	f.cTSUDec.Add(s.stats.TSU.Decrements)
	f.cTSUFired.Add(s.stats.TSU.Fired)
	// Stats are copied out above: a pooled state goes back to its
	// Tables' pool for the next session of this program, any other gives
	// its SM arrays to the next State built.
	s.state.Release()
	if s.onDone != nil {
		s.onDone(s.stats, err)
	}
	// Window slots freed above may unblock other sessions' deferred work.
	for i := range f.nodes {
		if f.alive[i] {
			f.drainDeferred(i)
		}
	}
}

func (f *Fleet) setInflight(i int) {
	f.inflightGauge[i].Set(int64(f.nodes[i].inflight))
}

func (f *Fleet) nodeOf(global tsu.KernelID) (node, local int) {
	for i := len(f.kernelBase) - 1; i >= 0; i-- {
		if int(global) >= f.kernelBase[i] {
			return i, int(global) - f.kernelBase[i]
		}
	}
	return 0, 0
}

func (f *Fleet) localFor(k tsu.KernelID, target int) int {
	if node, local := f.nodeOf(k); node == target {
		return local
	}
	if f.nodeKernels[target] <= 0 {
		return 0
	}
	return int(k) % f.nodeKernels[target]
}

func (f *Fleet) nextAlive(from int) int {
	for i := 1; i <= f.n; i++ {
		if k := (from + i) % f.n; f.alive[k] {
			return k
		}
	}
	return -1
}

// completeAndDispatch applies one completion to a session's TSU state,
// exporting the coordinator-side work as a TSUCommand event on the
// fleet's coordinator lane (one past the last node), then dispatches what
// it readied, or closes the session when the program is done. It returns
// dispatch's first fatal program error; callers check s.closed.
func (f *Fleet) completeAndDispatch(s *session, inst core.Instance, k tsu.KernelID) error {
	var t0 time.Duration
	if f.sink != nil {
		t0 = f.sink.Now()
	}
	base := len(f.ready)
	var programDone bool
	f.ready, _, programDone = s.state.CompleteInto(f.ready, inst, k)
	if f.sink != nil {
		f.sink.Record(obs.Event{
			Kind:  obs.TSUCommand,
			Lane:  f.n,
			Inst:  inst,
			Start: t0,
			Dur:   f.sink.Now() - t0,
		})
	}
	var err error
	if programDone {
		f.closeSession(s, nil)
	} else {
		for i, end := base, len(f.ready); i < end; i++ {
			if err = f.dispatch(s, f.ready[i]); err != nil || s.closed {
				break
			}
		}
	}
	f.ready = f.ready[:base]
	return err
}

// buildExec assembles the Exec for an instance bound for target,
// re-reading import regions from the session's canonical buffers; safe
// to repeat because exports apply only at the coordinator and an
// instance's imports were finalized before it became ready (the same
// invariant lets Data alias the canonical buffer until the batch
// flushes). Regions whose version matches what target already caches
// for this session become refs. Imports are staged in target's arena,
// which lives as long as its batch. Returns the payload bytes actually
// shipped. Errors are fatal program errors.
func (f *Fleet) buildExec(s *session, inst core.Instance, target int) (Exec, int64, error) {
	ex := Exec{Prog: s.id, Inst: inst}
	var shipped int64
	nio := &f.nodes[target]
	staged := len(nio.imports)
	imports, _ := s.regions.Instance(inst)
	for _, id := range imports {
		sp := s.regions.Spans[id]
		rdata := RegionData{Buffer: s.regions.Buffers[sp.Buf], Offset: sp.Off, Size: sp.Size}
		var err error
		if rdata.Data, err = s.svb.Slice(rdata.Buffer, sp.Off, sp.Size); err != nil {
			nio.imports = nio.imports[:staged]
			return ex, 0, fmt.Errorf("dist: import %w", err)
		}
		if s.track == nil {
			shipped += rdata.Size
		} else if rdata.Ver, rdata.Ref = s.track.ship(id, target); rdata.Ref {
			// Current on the worker: ship the reference only.
			rdata.Data = nil
			s.stats.RegionCacheHits++
			s.stats.BytesSaved += rdata.Size
			f.cCacheHits.Add(1)
			f.cBytesSaved.Add(rdata.Size)
		} else {
			s.stats.RegionCacheMisses++
			f.cCacheMisses.Add(1)
			shipped += rdata.Size
		}
		nio.imports = append(nio.imports, rdata)
	}
	if n := len(nio.imports); n > staged {
		// Capacity stops at the end: the next Exec appends past it, and if
		// that grows the arena this one keeps the array it was staged in.
		ex.Imports = nio.imports[staged:n:n]
	}
	return ex, shipped, nil
}

// flushNode sends node i's accumulated ExecBatch as one frame; a
// transport error fails the node over (the leases it carries are
// re-scheduled by markDead). The frame is charged to the fleet's
// traffic counters and to every session with an Exec aboard.
func (f *Fleet) flushNode(i int) {
	nio := &f.nodes[i]
	if len(nio.batch) == 0 {
		return
	}
	if !f.alive[i] {
		nio.batch, nio.imports, nio.batchBytes = nio.batch[:0], nio.imports[:0], 0
		return
	}
	f.cBytesOut.Add(nio.batchBytes)
	f.cMessages.Add(1)
	f.cBatches.Add(1)
	f.batchHist.Observe(int64(len(nio.batch)))
	for j := range nio.batch {
		p := nio.batch[j].Prog
		first := true
		for k := 0; k < j; k++ {
			if nio.batch[k].Prog == p {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		if s := f.sessions[p]; s != nil {
			s.stats.Messages++
			s.stats.Batches++
		}
	}
	err := f.links[i].sendExecBatch(nio.batch)
	nio.batch, nio.imports, nio.batchBytes = nio.batch[:0], nio.imports[:0], 0
	if err != nil {
		f.markDead(i, fmt.Errorf("send: %w", err))
	}
}

func (f *Fleet) flushAll() {
	for i := range f.nodes {
		f.flushNode(i)
	}
}

// appendExecTo stages one built Exec into target's batch, flushing on
// the size/count thresholds.
func (f *Fleet) appendExecTo(target int, ex Exec, shipped int64) {
	nio := &f.nodes[target]
	nio.batch = append(nio.batch, ex)
	nio.batchBytes += shipped
	if len(nio.batch) >= f.opt.BatchCount || nio.batchBytes >= f.opt.BatchBytes {
		f.flushNode(target)
	}
}

// enqueueExec leases an instance onto target and stages its Exec.
// Returns only fatal program errors; transport failures fail over
// internally (callers must check s.closed afterwards).
func (f *Fleet) enqueueExec(s *session, inst core.Instance, kern tsu.KernelID, target int) error {
	ex, shipped, err := f.buildExec(s, inst, target)
	if err != nil {
		return err
	}
	ex.Kernel = f.localFor(kern, target)
	var ls *lease
	if k := len(f.freeLeases); k > 0 {
		ls, f.freeLeases = f.freeLeases[k-1], f.freeLeases[:k-1]
	} else {
		ls = new(lease)
	}
	*ls = lease{inst: inst, kern: kern, node: target, attempts: 1, wall: time.Now(), bytes: shipped}
	if f.sink != nil {
		ls.at = f.sink.Now()
	}
	s.leases[inst] = ls
	s.stats.BytesOut += shipped
	f.nodes[target].inflight++
	f.setInflight(target)
	f.appendExecTo(target, ex, shipped)
	return nil
}

// putLease parks ls, which its session is dropping, for enqueueExec to
// reuse; nothing may read it afterwards. At most nodes ×
// Window leases are parked: a lease is made only on a node with a free
// window slot and a failover only moves one, so no more can be live at
// once.
func (f *Fleet) putLease(ls *lease) {
	if poisonReleased.Load() {
		ls.poison()
	}
	if len(f.freeLeases) < f.n*f.opt.Window {
		f.freeLeases = append(f.freeLeases, ls)
	}
}

// deferReady parks a ready instance on target's per-session deferred
// queue, entering the session into the node's WRR rotation.
func (f *Fleet) deferReady(s *session, target int, rd tsu.Ready) {
	nio := &f.nodes[target]
	if nio.deferred == nil {
		nio.deferred = make(map[uint32][]tsu.Ready)
		nio.credit = make(map[uint32]int)
	}
	q := nio.deferred[s.id]
	if len(q) == 0 {
		nio.rr = append(nio.rr, s.id)
		nio.credit[s.id] = s.weight
	}
	nio.deferred[s.id] = append(q, rd)
}

// drainDeferred refills node i's window from its deferred queues in
// weighted round-robin over sessions: each session spends its weight in
// credits, then rotates to the back, so a 10k-instance program and a
// 10-instance program interleave on the same node instead of FIFO
// head-of-line blocking.
//
// Each turn finishes its surgery on the ring before it dispatches.
// enqueueExec can flush; a failed flush fails the node over, and markDead
// then takes this node's ring and queues to re-route them (closeSession,
// on a fatal error, likewise scrubs the session's entries). Nothing read
// before the call may be used after it; the loop condition re-reads it
// all.
func (f *Fleet) drainDeferred(i int) {
	nio := &f.nodes[i]
	for f.alive[i] && nio.inflight < f.opt.Window && len(nio.rr) > 0 {
		sid := nio.rr[0]
		s := f.sessions[sid]
		q := nio.deferred[sid]
		if s == nil || s.closed || len(q) == 0 {
			delete(nio.deferred, sid)
			delete(nio.credit, sid)
			nio.rr = nio.rr[1:]
			continue
		}
		rd := q[0]
		if len(q) == 1 {
			delete(nio.deferred, sid)
			delete(nio.credit, sid)
			nio.rr = nio.rr[1:]
		} else {
			nio.deferred[sid] = q[1:]
			if nio.credit[sid]--; nio.credit[sid] <= 0 {
				nio.credit[sid] = s.weight
				nio.rr = append(nio.rr[1:], sid)
			}
		}
		if err := f.enqueueExec(s, rd.Inst, rd.Kernel, i); err != nil {
			f.closeSession(s, err)
		}
	}
}

// dispatch sends one application instance of s to its owner node (or a
// surviving fallback) — deferring it when the node's in-flight window
// is full — or processes a service instance (Inlet / Outlet) locally at
// the TSU. Only fatal program errors are returned; transport failures
// fail over internally. Callers must check s.closed afterwards
// (ProgramDone closes the session from inside).
func (f *Fleet) dispatch(s *session, rd tsu.Ready) error {
	if s.closed {
		return nil
	}
	if s.state.IsService(rd.Inst) {
		return f.completeAndDispatch(s, rd.Inst, rd.Kernel)
	}
	owner, _ := f.nodeOf(rd.Kernel)
	target := owner
	if !f.alive[target] {
		target = f.nextAlive(owner)
		if target < 0 {
			return fmt.Errorf("dist: all %d nodes lost; cannot dispatch %v; last failure: %w", f.n, rd.Inst, f.lastLoss)
		}
	}
	if f.nodes[target].inflight >= f.opt.Window {
		f.deferReady(s, target, rd)
		return nil
	}
	return f.enqueueExec(s, rd.Inst, rd.Kernel, target)
}

// scheduleRedispatch arms a backoff timer that re-queues the lease's
// instance through the event loop. The lease generation guards the
// timer: if the lease was completed or re-scheduled meanwhile, the
// firing is stale and ignored.
func (f *Fleet) scheduleRedispatch(s *session, ls *lease) error {
	ls.attempts++
	if ls.attempts > maxAttempts {
		return fmt.Errorf("dist: instance %v exhausted %d dispatch attempts; last node loss: %v", ls.inst, maxAttempts, f.lastLoss)
	}
	f.genCtr++
	ls.gen = f.genCtr
	prog, inst, gen := s.id, ls.inst, ls.gen
	delay := backoffDelay(ls.attempts-1, f.opt.RetryBase, f.opt.RetryCap)
	s.timers = append(s.timers, time.AfterFunc(delay, func() {
		f.push(fleetEvent{redispatch: true, prog: prog, inst: inst, gen: gen})
	}))
	return nil
}

// redispatch moves a drained lease to the next surviving node. It
// bypasses the window (failover work must not starve behind new
// dispatches) but rides the same batch path.
func (f *Fleet) redispatch(prog uint32, inst core.Instance, gen int64) {
	s := f.sessions[prog]
	if s == nil {
		return // session finished or failed meanwhile
	}
	ls := s.leases[inst]
	if ls == nil || ls.gen != gen {
		return // completed or re-scheduled meanwhile
	}
	target := f.nextAlive(ls.node)
	if target < 0 {
		f.closeSession(s, fmt.Errorf("dist: all %d nodes lost; cannot re-dispatch %v; last failure: %w", f.n, inst, f.lastLoss))
		return
	}
	ex, shipped, err := f.buildExec(s, inst, target)
	if err != nil {
		f.closeSession(s, err)
		return
	}
	ex.Kernel = f.localFor(ls.kern, target)
	ls.node = target
	ls.bytes = shipped
	ls.wall = time.Now()
	if f.sink != nil {
		ls.at = f.sink.Now()
	}
	s.stats.Retries++
	s.stats.BytesOut += shipped
	f.cRetries.Add(1)
	if !ls.failedAt.IsZero() {
		f.foHist.ObserveDuration(time.Since(ls.failedAt))
	}
	f.nodes[target].inflight++
	f.setInflight(target)
	f.appendExecTo(target, ex, shipped)
}

// markDead declares a node lost: close its link (unblocking its
// reader), drop its pending batch, drain every session's leases on it
// into re-dispatch timers, re-route its deferred instances, and fail
// every open session if no node survives.
func (f *Fleet) markDead(node int, reason error) {
	if node < 0 || node >= f.n || !f.alive[node] {
		return
	}
	f.alive[node] = false
	f.aliveN--
	f.aliveAtom.Store(int64(f.aliveN))
	f.lastLoss = fmt.Errorf("node %d: %w", node, reason)
	f.cFailovers.Add(1)
	f.aliveGauge[node].Set(0)
	f.links[node].close() //nolint:errcheck
	if f.sink != nil {
		f.sink.Record(obs.Event{Kind: obs.DistFailover, Lane: node, Start: f.sink.Now(), Note: reason.Error()})
	}
	nio := &f.nodes[node]
	nio.batch, nio.imports, nio.batchBytes, nio.inflight = nio.batch[:0], nio.imports[:0], 0, 0
	f.setInflight(node)
	deferred := nio.deferred
	nio.deferred, nio.rr, nio.credit = nil, nil, nil

	failedAt := time.Now()
	sess := f.snapshotSessions()
	for _, s := range sess {
		if s.closed {
			continue
		}
		s.stats.Failovers++
		s.stats.Nodes[node].Lost = true
		s.stats.Nodes[node].LostReason = reason.Error()
		if s.track != nil {
			s.track.dropNode(node)
		}
		for _, ls := range s.leases {
			if ls.node != node {
				continue
			}
			ls.failedAt = failedAt
			if err := f.scheduleRedispatch(s, ls); err != nil {
				f.closeSession(s, err)
				break
			}
		}
	}
	if f.aliveN == 0 {
		err := fmt.Errorf("dist: all %d nodes lost; last failure: %w", f.n, f.lastLoss)
		for _, s := range sess {
			if !s.closed {
				f.closeSession(s, err)
			}
		}
		return
	}
	for sid, q := range deferred {
		s := f.sessions[sid]
		if s == nil || s.closed {
			continue
		}
		for _, rd := range q {
			if err := f.dispatch(s, rd); err != nil {
				f.closeSession(s, err)
				break
			}
			if s.closed {
				break
			}
		}
	}
}

// handleDone validates one Done entry and applies it to its session.
// Validation comes first: a buggy or byzantine worker must not panic
// the coordinator or double-apply exports. A Done without a matching
// (instance, node) lease is a late duplicate — counted and dropped; a
// Done for an unknown program raced a session close — dropped too.
func (f *Fleet) handleDone(d *Done, node int) {
	s := f.sessions[d.Prog]
	if s == nil {
		f.cUnknownDones.Add(1)
		return
	}
	ls := s.leases[d.Inst]
	if ls == nil || ls.node != node {
		// No live lease binds this (instance, node) pair: a late Done
		// from a failed-over node, or an unsolicited one. Either way
		// its exports must not re-apply.
		s.stats.DupeDones++
		f.cDupeDones.Add(1)
		return
	}
	if d.Err != "" {
		f.closeSession(s, errors.New("dist: "+d.Err))
		return
	}
	if d.Kernel < 0 || d.Kernel >= f.nodeKernels[node] {
		f.markDead(node, fmt.Errorf("dist: node %d reported out-of-range kernel %d (hosts %d)", node, d.Kernel, f.nodeKernels[node]))
		return
	}
	// Validate every export before applying any. An honest worker exports
	// exactly the sized write regions the program's own Access model
	// declares for the instance, so an export that matches none of them
	// convicts the *node*, in bounds or not. One that matches and still
	// misses its buffer is the *program* reaching outside its registered
	// buffers (fail its session only — on a shared fleet one tenant's bad
	// program must not cost a node). An honest worker sends the exports in
	// the declared order, so export i is held to declared[i] first, and
	// the whole list is searched only when that fails.
	_, declared := s.regions.Instance(d.Inst)
	matches := func(sp core.RegionSpan, rdata *RegionData, size int64) bool {
		return sp.Off == rdata.Offset && sp.Size == size && s.regions.Buffers[sp.Buf] == rdata.Buffer
	}
	f.exports = f.exports[:0]
	for i := range d.Exports {
		rdata := &d.Exports[i]
		if rdata.Ref {
			f.markDead(node, fmt.Errorf("dist: node %d shipped a cache reference as an export", node))
			return
		}
		size := int64(len(rdata.Data))
		buf := int32(-1)
		if i < len(declared) && matches(declared[i], rdata, size) {
			buf = declared[i].Buf
		} else {
			for _, sp := range declared {
				if matches(sp, rdata, size) {
					buf = sp.Buf
					break
				}
			}
		}
		dst, err := s.svb.Slice(rdata.Buffer, rdata.Offset, size)
		switch {
		case err != nil && buf >= 0:
			f.closeSession(s, fmt.Errorf("dist: program %d export reaches outside its namespace: %w", d.Prog, err))
			return
		case err != nil:
			f.markDead(node, fmt.Errorf("dist: node %d export %w", node, err))
			return
		case buf < 0:
			f.markDead(node, fmt.Errorf("dist: node %d exported %q[%d,+%d), which %v does not declare", node, rdata.Buffer, rdata.Offset, size, d.Inst))
			return
		}
		f.exports = append(f.exports, validExport{dst: dst, buf: buf})
	}
	delete(s.leases, d.Inst)
	var exportBytes int64
	for i, ve := range f.exports {
		rdata := &d.Exports[i]
		copy(ve.dst, rdata.Data)
		// The canonical bytes changed: invalidate every cached copy of
		// any overlapping import region of this session.
		if s.track != nil {
			s.track.bump(ve.buf, rdata.Offset, rdata.Offset+int64(len(ve.dst)))
		}
		exportBytes += int64(len(ve.dst))
	}
	s.stats.BytesIn += exportBytes
	s.stats.Nodes[node].Executed++
	f.cBytesIn.Add(exportBytes)
	f.nodes[node].inflight--
	f.setInflight(node)
	dur := time.Since(ls.wall)
	if f.sink != nil {
		f.sink.Record(obs.Event{
			Kind:  obs.DistRPC,
			Lane:  node,
			Inst:  d.Inst,
			Start: ls.at,
			Dur:   dur,
			Bytes: ls.bytes + exportBytes,
		})
		// The same span doubles as the node lane's occupancy: remote
		// body time plus transport, as observed here.
		f.sink.Record(obs.Event{
			Kind:  obs.ThreadComplete,
			Lane:  node,
			Inst:  d.Inst,
			Start: ls.at,
			Dur:   dur,
		})
	}
	f.rpcHist.ObserveDuration(dur)
	f.putLease(ls)
	global := tsu.KernelID(f.kernelBase[node] + d.Kernel)
	if err := f.completeAndDispatch(s, d.Inst, global); err != nil {
		f.closeSession(s, err)
	}
	f.drainDeferred(node)
}

// handleDoneBatch applies a DoneBatch frame entry by entry. If an entry
// gets the node declared dead (byzantine validation failure), the rest
// of its batch is untrusted and dropped — the dead node's leases are
// already re-scheduled. The frame is charged to every session it
// carries completions for.
func (f *Fleet) handleDoneBatch(dones []Done, node int) {
	f.cMessages.Add(1)
	for i := range dones {
		p := dones[i].Prog
		first := true
		for k := 0; k < i; k++ {
			if dones[k].Prog == p {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		if s := f.sessions[p]; s != nil {
			s.stats.Messages++
		}
	}
	for i := range dones {
		if !f.alive[node] {
			return
		}
		f.handleDone(&dones[i], node)
	}
}
