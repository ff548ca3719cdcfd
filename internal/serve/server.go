package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/dist"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// Options tunes the daemon. Zero values select the defaults.
type Options struct {
	// Resolver turns submitted specs into coordinator-side programs and
	// their input buffers. Required. It must agree with the resolver the
	// fleet's workers run, or replicas will diverge.
	Resolver dist.Resolver
	// MaxPrograms caps concurrently running programs — the declared
	// capacity admissions are controlled against. Default 2× the
	// fleet's node count.
	MaxPrograms int
	// MaxQueue caps admitted-but-not-yet-running programs across all
	// tenants; a submission past it is rejected. Default 64.
	MaxQueue int
	// TenantQuota caps one tenant's running+queued programs. Default
	// MaxQueue (i.e. effectively the global bound).
	TenantQuota int
	// ArenaBytes sizes the canonical-buffer arena every running
	// program's coordinator-side buffers are carved from. A program
	// whose declared buffers cannot fit even an empty arena is rejected
	// outright; one that merely doesn't fit *now* waits in the queue.
	// Default 64 MiB.
	ArenaBytes int64
	// Weights sets per-tenant scheduling weights (default 1 each): a
	// tenant with weight w gets w queue slots per round of the
	// weighted round-robin, and its programs inherit w as their
	// dispatch weight inside the fleet.
	Weights map[string]int
	// DisableLint skips the ddmlint admission gate. For tests proving
	// the runtime guards hold without it.
	DisableLint bool
	// ProgramCache caps the admission cache: resolved program identities
	// (spec → built program, lint verdict, frozen TSU tables) memoized
	// across submissions, so a warm Submit skips Build + lint and its
	// sessions skip TSU table construction and, opened pooled, worker
	// replica builds. 0 selects 64 entries; negative disables caching
	// (every submission resolves from scratch and every worker builds a
	// replica per session).
	ProgramCache int

	// Metrics receives serve.* counters, gauges and the admission-to-
	// completion latency histogram; when nil a private registry is
	// created (the dashboard needs one). Sink, when set, receives
	// ServeAdmit/ServeReject/ServeResult events.
	Metrics *obs.Registry
	Sink    obs.Sink
}

// clientWriteTimeout bounds each client-bound frame write, so a client
// that stops reading costs its own connection, not the daemon.
const clientWriteTimeout = 10 * time.Second

func (o Options) withDefaults(fleetNodes int) Options {
	if o.MaxPrograms <= 0 {
		o.MaxPrograms = 2 * fleetNodes
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = o.MaxQueue
	}
	if o.ArenaBytes <= 0 {
		o.ArenaBytes = 64 << 20
	}
	if o.ProgramCache == 0 {
		o.ProgramCache = 64
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// program is one admitted submission moving through the daemon.
type program struct {
	id        uint32
	seq       uint64
	tenant    string
	spec      dist.ProgramSpec
	prog      *core.Program
	src       *core.SharedVariableBuffer // resolver's buffers (inputs)
	hash      uint64                     // dist.OpenReq.Hash (0: cache disabled)
	tables    *tsu.Tables                // frozen TSU tables (nil: cache disabled)
	overlay   []dist.RegionData          // client-supplied input regions
	ob        *outbox
	submitted time.Time
	allocs    []alloc // arena carvings, set when the program opens
	svb       *core.SharedVariableBuffer
}

type alloc struct {
	off, size int64
}

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	weight int
	credit int // remaining WRR credits this round
	queue  []*program
	inUse  int // running + queued
	qGauge *obs.Gauge
}

// Server is the tfluxd daemon core: admission control, per-tenant fair
// scheduling, and result delivery over one shared Fleet.
type Server struct {
	fleet *dist.Fleet
	opt   Options

	mu      sync.Mutex
	cond    *sync.Cond // signaled when running drops / queue drains
	closed  bool
	tenants map[string]*tenantState
	rr      []string // tenants with non-empty queues, WRR order
	queued  int
	running int
	nextID  uint32
	arena   *arena
	start   time.Time

	cache *programCache // nil when Options.ProgramCache < 0

	cSubmitted   *obs.Counter
	cAccepted    *obs.Counter
	cRejected    *obs.Counter
	cCompleted   *obs.Counter
	cFailed      *obs.Counter
	cCacheHits   *obs.Counter
	cCacheMisses *obs.Counter
	latHist      *obs.Histogram
	gRunning     *obs.Gauge
	gArena       *obs.Gauge
}

// New builds a Server over an already-handshaked fleet and starts the
// fleet's background loop. The caller keeps ownership of the fleet and
// closes it after Server.Close.
func New(fleet *dist.Fleet, opt Options) (*Server, error) {
	if opt.Resolver == nil {
		return nil, errors.New("serve: Options.Resolver is required")
	}
	opt = opt.withDefaults(fleet.Nodes())
	s := &Server{
		fleet:   fleet,
		opt:     opt,
		tenants: make(map[string]*tenantState),
		arena:   newArena(opt.ArenaBytes),
		start:   time.Now(),
		nextID:  1,

		cSubmitted:   opt.Metrics.Counter("serve.submitted"),
		cAccepted:    opt.Metrics.Counter("serve.accepted"),
		cRejected:    opt.Metrics.Counter("serve.rejected"),
		cCompleted:   opt.Metrics.Counter("serve.completed"),
		cFailed:      opt.Metrics.Counter("serve.failed"),
		cCacheHits:   opt.Metrics.Counter("serve.program_cache_hits"),
		cCacheMisses: opt.Metrics.Counter("serve.program_cache_misses"),
		latHist:      opt.Metrics.Histogram("serve.latency_ns"),
		gRunning:     opt.Metrics.Gauge("serve.running"),
		gArena:       opt.Metrics.Gauge("serve.arena_used"),
	}
	if opt.ProgramCache > 0 {
		s.cache = newProgramCache(opt.ProgramCache)
	}
	s.cond = sync.NewCond(&s.mu)
	if opt.Sink != nil {
		opt.Sink.Begin()
	}
	fleet.Start()
	return s, nil
}

func (s *Server) tenant(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		w := s.opt.Weights[name]
		if w < 1 {
			w = 1
		}
		ts = &tenantState{
			weight: w,
			credit: w,
			qGauge: s.opt.Metrics.Gauge("serve.queue." + name),
		}
		s.tenants[name] = ts
	}
	return ts
}

// Serve accepts client connections until the listener closes, running
// each connection's protocol loop in its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn) //nolint:errcheck // per-client errors end that client only
	}
}

// ServeConn runs one client connection: it reads Submit frames and
// writes Accept/Reject immediately and Result frames as programs
// finish. It returns when the client disconnects; programs the client
// submitted keep running, their results dropped.
func (s *Server) ServeConn(conn net.Conn) error {
	sc := dist.NewServiceConn(conn)
	sc.SetWriteTimeout(clientWriteTimeout)
	ob := newOutbox(sc)
	defer ob.close()
	for {
		f, err := sc.Recv()
		if err != nil {
			return err
		}
		if f.Submit == nil {
			return fmt.Errorf("serve: unexpected client frame")
		}
		s.submit(ob, f.Submit)
	}
}

// submit runs the admission pipeline for one submission: resolve the
// spec, gate it through ddmlint, check it can ever fit the arena, then
// take the admission lock for the capacity/quota/queue decision. The
// Accept or Reject frame is enqueued before the lock drops, so a
// program's Accept always precedes its Result on the wire.
func (s *Server) submit(ob *outbox, sub *dist.Submit) {
	s.cSubmitted.Inc()
	reject := func(reason string) {
		s.cRejected.Inc()
		s.event(obs.ServeReject, sub.Tenant+"/"+sub.Spec.Name+": "+reason, 0)
		ob.reject(sub.Seq, reason)
	}

	spec := sub.Spec
	if spec.Kernels <= 0 {
		spec.Kernels = s.fleet.Kernels()
	}
	if spec.Unroll <= 0 {
		spec.Unroll = 1
	}
	ent, reason := s.resolveProgram(spec)
	if ent == nil {
		reject(reason)
		return
	}
	prog := ent.prog
	if ent.need > s.opt.ArenaBytes {
		reject(fmt.Sprintf("program needs %d buffer bytes, arena capacity is %d", ent.need, s.opt.ArenaBytes))
		return
	}
	// The client's input regions must land inside the program's declared
	// buffers — per-submission state, checked on hits and misses alike.
	for i := range sub.Regions {
		rd := &sub.Regions[i]
		if rd.Ref {
			reject(fmt.Sprintf("input region %q is a cache reference", rd.Buffer))
			return
		}
		var decl int64 = -1
		for _, b := range prog.Buffers {
			if b.Name == rd.Buffer {
				decl = b.Size
				break
			}
		}
		if decl < 0 {
			reject(fmt.Sprintf("input region names undeclared buffer %q", rd.Buffer))
			return
		}
		if !core.InBounds(rd.Offset, int64(len(rd.Data)), decl) {
			reject(fmt.Sprintf("input region %q [%d,+%d) outside declared size %d", rd.Buffer, rd.Offset, len(rd.Data), decl))
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		reject("daemon draining")
		return
	}
	if s.fleet.AliveNodes() == 0 {
		s.mu.Unlock()
		reject("no live worker nodes")
		return
	}
	ts := s.tenant(sub.Tenant)
	if ts.inUse >= s.opt.TenantQuota {
		s.mu.Unlock()
		reject(fmt.Sprintf("tenant %q quota exceeded (%d programs in flight)", sub.Tenant, s.opt.TenantQuota))
		return
	}
	if s.queued >= s.opt.MaxQueue {
		s.mu.Unlock()
		reject(fmt.Sprintf("admission queue full (%d)", s.opt.MaxQueue))
		return
	}
	p := &program{
		id:        s.nextID,
		seq:       sub.Seq,
		tenant:    sub.Tenant,
		spec:      spec,
		prog:      prog,
		src:       ent.src,
		hash:      ent.hash,
		tables:    ent.tables,
		overlay:   sub.Regions,
		ob:        ob,
		submitted: time.Now(),
	}
	s.nextID++
	ts.inUse++
	if len(ts.queue) == 0 {
		s.rr = append(s.rr, sub.Tenant)
	}
	ts.queue = append(ts.queue, p)
	s.queued++
	ts.qGauge.Set(int64(len(ts.queue)))
	s.cAccepted.Inc()
	s.event(obs.ServeAdmit, sub.Tenant+"/"+spec.Name, 0)
	ob.accept(sub.Seq, p.id)
	s.schedule()
	s.mu.Unlock()
}

// resolveProgram returns the admission-cache entry for spec, resolving,
// linting and building it on a miss. A non-nil entry means the program
// passed every per-identity gate (resolve, lint/validate, buffer-fit);
// a nil entry carries the rejection reason. The hit path is one map
// lookup plus an LRU splice — no allocation (TestSubmitWarmPathAllocs).
func (s *Server) resolveProgram(spec dist.ProgramSpec) (*cacheEntry, string) {
	key := specKey{name: spec.Name, param: spec.Param, kernels: spec.Kernels, unroll: spec.Unroll}
	if s.cache != nil {
		if ent := s.cache.get(key); ent != nil {
			s.cCacheHits.Inc()
			return ent, ""
		}
	}
	prog, src, err := s.opt.Resolver(spec)
	if err != nil {
		return nil, fmt.Sprintf("resolve: %v", err)
	}
	if prog == nil {
		return nil, "resolve: resolver returned nil program"
	}
	if !s.opt.DisableLint {
		if err := ddmlint.Admit(prog); err != nil {
			return nil, err.Error()
		}
	} else if err := prog.Validate(); err != nil {
		return nil, fmt.Sprintf("validate: %v", err)
	}
	// The program's namespace is its declared buffers: the resolver must
	// populate each (they seed the canonical copies) and the total must
	// fit the arena.
	if err := src.Covers(prog.Buffers); err != nil {
		return nil, fmt.Sprintf("resolve: %v", err)
	}
	var need int64
	for _, b := range prog.Buffers {
		need += alignUp(b.Size)
	}
	ent := &cacheEntry{key: key, prog: prog, src: src, need: need}
	if s.cache != nil {
		s.cCacheMisses.Inc()
		ent.hash = spec.Hash()
		// Frozen TSU tables let every session of this program skip table
		// construction; a build failure (e.g. a program the TSU rejects at
		// open) just leaves tables nil and the fleet falls back.
		ent.tables, _ = tsu.NewTables(prog, s.fleet.Kernels(), tsu.Config{})
		s.cache.put(ent)
	}
	return ent, ""
}

// schedule opens queued programs while capacity, arena space and the
// weighted round-robin allow. Callers hold s.mu.
//
// The WRR walks the rotation of tenants with queued work: the front
// tenant spends one credit per opened program and rotates to the back
// when its credits run out, so a tenant with weight w gets w openings
// per round regardless of how deep its queue is. A tenant whose head
// program doesn't fit the arena right now is skipped without spending
// credit; when no tenant's head fits, scheduling waits for a release.
func (s *Server) schedule() {
	for s.running < s.opt.MaxPrograms && len(s.rr) > 0 {
		opened := false
		for i := 0; i < len(s.rr); i++ {
			ts := s.tenants[s.rr[i]]
			p := ts.queue[0]
			allocs, svb, ok := s.carve(p.prog)
			if !ok {
				continue
			}
			p.allocs, p.svb = allocs, svb
			ts.queue = ts.queue[1:]
			s.queued--
			ts.qGauge.Set(int64(len(ts.queue)))
			if len(ts.queue) == 0 {
				s.rr = append(s.rr[:i], s.rr[i+1:]...)
			} else if i == 0 {
				ts.credit--
				if ts.credit <= 0 {
					ts.credit = ts.weight
					s.rr = append(s.rr[1:], s.rr[0])
				}
			}
			s.open(p)
			opened = true
			break
		}
		if !opened {
			return // arena full: a finishing program will re-kick
		}
	}
}

// carve allocates the program's declared buffers from the arena and
// builds its private SharedVariableBuffer over the carvings, seeding
// each from the resolver's source bytes. Each buffer is a capped
// subslice of its allocation, so no access through this namespace can
// reach another program's memory — isolation by construction, with the
// admission lint and the fleet's byzantine checks as the layers above.
func (s *Server) carve(prog *core.Program) ([]alloc, *core.SharedVariableBuffer, bool) {
	allocs := make([]alloc, 0, len(prog.Buffers))
	svb := core.NewSharedVariableBuffer()
	for _, decl := range prog.Buffers {
		b, off, ok := s.arena.alloc(decl.Size)
		if !ok {
			for _, a := range allocs {
				s.arena.release(a.off, a.size)
			}
			return nil, nil, false
		}
		allocs = append(allocs, alloc{off, decl.Size})
		svb.Register(decl.Name, b[:decl.Size:decl.Size])
	}
	s.gArena.Set(s.arena.size() - s.arena.available())
	return allocs, svb, true
}

// open seeds the program's canonical buffers, applies the client's
// input overlay and hands the session to the fleet. Callers hold s.mu.
func (s *Server) open(p *program) {
	for _, decl := range p.prog.Buffers {
		copy(p.svb.Bytes(decl.Name), p.src.Bytes(decl.Name))
	}
	s.running++
	s.gRunning.Set(int64(s.running))
	for i := range p.overlay {
		rd := &p.overlay[i]
		dst, err := p.svb.Slice(rd.Buffer, rd.Offset, int64(len(rd.Data)))
		if err != nil {
			// Admission checked the overlay against the declared sizes the
			// carving has, so this costs the program, never the daemon.
			go s.finish(p, nil, fmt.Errorf("serve: input %w", err))
			return
		}
		copy(dst, rd.Data)
	}
	ts := s.tenants[p.tenant]
	err := s.fleet.Open(p.id, dist.OpenReq{
		Prog:   p.prog,
		SVB:    p.svb,
		Spec:   p.spec,
		Hash:   p.hash,
		Tables: p.tables,
		Weight: ts.weight,
		// OnDone runs on the fleet's event loop and must not block;
		// result assembly takes the admission lock, so hop goroutines.
		OnDone: func(st *dist.Stats, err error) { go s.finish(p, st, err) },
	})
	if err != nil {
		go s.finish(p, nil, err)
	}
}

// finish assembles and delivers one finished program's Result, returns
// its arena carvings, and re-kicks the scheduler.
func (s *Server) finish(p *program, st *dist.Stats, runErr error) {
	res := &dist.Result{Prog: p.id}
	if runErr != nil {
		res.Err = runErr.Error()
	}
	if st != nil {
		res.ElapsedNS = uint64(st.Elapsed.Nanoseconds())
		res.Failovers = uint64(st.Failovers)
		res.Retries = uint64(st.Retries)
	}

	s.mu.Lock()
	if runErr == nil {
		// Copy the final bytes out before the arena reuses them.
		for _, decl := range p.prog.Buffers {
			data := append([]byte(nil), p.svb.Bytes(decl.Name)...)
			res.Regions = append(res.Regions, dist.RegionData{
				Buffer: decl.Name, Offset: 0, Data: data, Size: int64(len(data)),
			})
		}
	}
	for _, a := range p.allocs {
		s.arena.release(a.off, a.size)
	}
	p.allocs, p.svb = nil, nil
	s.gArena.Set(s.arena.size() - s.arena.available())
	s.running--
	s.gRunning.Set(int64(s.running))
	s.tenants[p.tenant].inUse--
	lat := time.Since(p.submitted)
	s.schedule()
	s.cond.Broadcast()
	s.mu.Unlock()

	if runErr != nil {
		s.cFailed.Inc()
	} else {
		s.cCompleted.Inc()
	}
	s.latHist.Observe(lat.Nanoseconds())
	s.event(obs.ServeResult, p.tenant+"/"+p.spec.Name, lat)
	p.ob.result(res)
}

func (s *Server) event(kind obs.Kind, note string, dur time.Duration) {
	if s.opt.Sink == nil {
		return
	}
	now := s.opt.Sink.Now()
	s.opt.Sink.Record(obs.Event{
		Kind: kind, Lane: s.fleet.Nodes(), Start: now - dur, Dur: dur, Note: note,
	})
}

// Close drains the daemon: new submissions are rejected, queued
// programs fail with a shutdown Result, and Close blocks until the
// running ones finish. The fleet is left open for the caller.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var dropped []*program
	for _, ts := range s.tenants {
		for _, p := range ts.queue {
			dropped = append(dropped, p)
			ts.inUse--
		}
		ts.queue = nil
		ts.qGauge.Set(0)
	}
	s.rr = nil
	s.queued = 0
	for s.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	for _, p := range dropped {
		s.cFailed.Inc()
		p.ob.result(&dist.Result{Prog: p.id, Err: "serve: daemon shutting down"})
	}
	return nil
}

// outbox serializes one client's outbound frames through a dedicated
// writer goroutine, so neither the fleet loop nor the admission path
// ever blocks on a slow client. A client that falls further behind
// than the buffer is cut off; frames for a departed client are dropped
// (its programs keep running).
type outbox struct {
	sc   *dist.ServiceConn
	mu   sync.Mutex
	ch   chan func(sc *dist.ServiceConn) error
	dead bool // no further enqueues
	once sync.Once
}

func newOutbox(sc *dist.ServiceConn) *outbox {
	ob := &outbox{sc: sc, ch: make(chan func(*dist.ServiceConn) error, 1024)}
	go func() {
		for send := range ob.ch {
			if err := send(ob.sc); err != nil {
				ob.sc.Close() //nolint:errcheck // reader sees the close
				for range ob.ch {
					// drain until close; the client is gone
				}
				return
			}
		}
	}()
	return ob
}

func (ob *outbox) enqueue(send func(*dist.ServiceConn) error) {
	ob.mu.Lock()
	if ob.dead {
		ob.mu.Unlock()
		return
	}
	select {
	case ob.ch <- send:
		ob.mu.Unlock()
	default:
		// Slow client: stop feeding it and sever the connection; its
		// ServeConn loop will close the channel on the way out.
		ob.dead = true
		ob.mu.Unlock()
		ob.sc.Close() //nolint:errcheck
	}
}

func (ob *outbox) accept(seq uint64, prog uint32) {
	ob.enqueue(func(sc *dist.ServiceConn) error { return sc.SendAccept(seq, prog) })
}

func (ob *outbox) reject(seq uint64, reason string) {
	ob.enqueue(func(sc *dist.ServiceConn) error { return sc.SendReject(seq, reason) })
}

func (ob *outbox) result(res *dist.Result) {
	ob.enqueue(func(sc *dist.ServiceConn) error { return sc.SendResult(res) })
}

func (ob *outbox) close() {
	ob.mu.Lock()
	ob.dead = true
	ob.mu.Unlock()
	ob.once.Do(func() { close(ob.ch) })
}
