package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"tflux/internal/core"
)

// maxDoneBatch caps how many completions the worker coalesces into one
// DoneBatch frame. The writer drains whatever is ready without waiting,
// so the cap only bounds frame size, not reply latency.
const maxDoneBatch = 64

// recordPool recycles Done records — one completion encoded by
// appendDone — between the goroutines that encode them and the writer
// that copies them into a DoneBatch frame. Like framePool it outlives
// any one worker, so a worker built for one session reuses the records
// of the last.
var recordPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeDone encodes d into a record from recordPool.
func encodeDone(d *Done) *[]byte {
	rec := recordPool.Get().(*[]byte)
	*rec = appendDone((*rec)[:0], d)
	return rec
}

// cacheEntry is one worker-cached import region: the payload bytes at a
// coordinator-assigned version. data is the entry's own copy — the frame
// the bytes arrived in is recycled once staged — and is reused when the
// key is cached again; ver 0 marks an invalidated entry.
type cacheEntry struct {
	ver  uint64
	data []byte
}

const (
	// cacheChunk is the size of the chunks an importCache carves small
	// payload copies from, and maxCarved the largest payload carved: a
	// bigger one (MMULT's B panel is 128 KiB) keeps a copy of its own, so
	// a replica that caches a few large regions pays for no chunk slack.
	cacheChunk = 4 << 10
	maxCarved  = cacheChunk / 8
	// maxParkedChunks bounds the chunk storage a parked cache keeps.
	maxParkedChunks = 256
)

// importCache is a replica's region cache: the versioned import payloads
// it holds, keyed by region, and the chunks its small payload copies are
// carved from. A one-session replica's cache outlives it: the worker loop
// parks it, emptied but with its map table and chunks, for the next
// replica built on the connection, as the Fleet parks its region tables.
// The zero value is an empty cache.
type importCache struct {
	ents   map[regionKey]cacheEntry
	chunks [][]byte // cacheChunk bytes each
	// The next payload is carved from chunks[used] at off.
	used, off int
}

// put caches rd's payload at rd.Ver, copying it into the storage the key
// already owns when it was cached before: the key includes the size.
func (c *importCache) put(rd *RegionData) {
	if c.ents == nil {
		c.ents = make(map[regionKey]cacheEntry)
	}
	key := rd.key()
	data := c.ents[key].data
	if len(data) != len(rd.Data) {
		data = c.alloc(len(rd.Data))
	}
	copy(data, rd.Data)
	c.ents[key] = cacheEntry{ver: rd.Ver, data: data}
}

// alloc returns n bytes of storage for one payload copy: carved from the
// cache's chunks when n is small, a copy of its own otherwise.
func (c *importCache) alloc(n int) []byte {
	if n > maxCarved {
		return make([]byte, n)
	}
	if c.off+n > cacheChunk {
		c.used, c.off = c.used+1, 0
	}
	if c.used == len(c.chunks) {
		c.chunks = append(c.chunks, make([]byte, cacheChunk))
	}
	b := c.chunks[c.used][c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// park moves the cache, emptied, onto parked for a replica of another
// session, and leaves c empty. A full parked list, or a cache that tracked
// more regions than maxParkedRegions, leaves it to the GC instead, so one
// enormous program does not pin its high-water mark for the connection's
// lifetime.
func (c *importCache) park(parked []importCache) []importCache {
	keep := len(parked) < maxParkedTables && len(c.ents) <= maxParkedRegions
	if keep {
		clear(c.ents) // keeps the map's table
		if len(c.chunks) > maxParkedChunks {
			clear(c.chunks[maxParkedChunks:])
			c.chunks = c.chunks[:maxParkedChunks]
		}
		c.used, c.off = 0, 0
		parked = append(parked, *c)
	}
	*c = importCache{}
	return parked
}

// unpark moves the cache parked last into c, if there is one.
func (c *importCache) unpark(parked []importCache) []importCache {
	k := len(parked)
	if k == 0 {
		return parked
	}
	*c, parked[k-1] = parked[k-1], importCache{}
	return parked[:k-1]
}

// Resolver turns a ProgramSpec from an OpenProg frame into this node's
// replica of the program: the program structure (bodies included) plus
// the registry of replica buffers. Both sides of a session resolve the
// same spec, so the replicas are structurally identical to the
// coordinator's program by construction.
type Resolver func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error)

// replica is one program's worker-side state: its templates, its
// private buffer registry, its region cache, and the memory lock
// serializing staging and bodies within the replica. Different
// programs' replicas have independent locks, so one node can run
// bodies of different programs concurrently.
type replica struct {
	spec      ProgramSpec // what it was built from: its key in the idle pool
	templates map[core.ThreadID]*core.Template
	// access is filled under mu as instances execute, and outlives the
	// session with a pooled replica: a node asks the models about the
	// instances it runs, once, and about no others.
	access *core.AccessTable
	bufs   *core.SharedVariableBuffer
	// cache is touched only by the recv loop (stageImports, and parking at
	// CloseProg), never by a body.
	cache importCache
	mu    sync.Mutex

	// pristine snapshots every registered buffer's content at build time
	// so the replica can be recycled between sessions; nil for a replica
	// built for one session (a cold open), which is never recycled.
	pristine map[string][]byte
	// pending counts Execs queued to kernel goroutines but not yet
	// completed. The recv loop increments before queueing and reads it at
	// CloseProg: a replica with in-flight bodies is dropped instead of
	// recycled, since a body may still write its buffers.
	pending atomic.Int32
}

// maxReplicaPool caps how many idle recycled replicas a worker keeps
// per spec; beyond that, closed sessions are left to the GC.
const maxReplicaPool = 4

// workItem is one Exec queued to a kernel goroutine, resolved to its
// replica at receive time (imports already staged).
type workItem struct {
	ex  Exec
	rep *replica
}

// Serve runs one worker node for a single fixed program: build returns
// the node's replica (bodies + buffers), and every OpenProg resolves to
// a fresh call of it regardless of spec. This is the CoordinateOpts-side
// worker entry point; tfluxd fleets use ServeFleet with a real
// Resolver. It returns nil on a clean shutdown.
func Serve(conn net.Conn, kernels int, build func() (*core.Program, *core.SharedVariableBuffer)) error {
	return ServeFleet(conn, kernels, func(ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		prog, bufs := build()
		if prog == nil {
			return nil, nil, errors.New("dist: program builder returned nil")
		}
		return prog, bufs, nil
	})
}

// ServeFleet runs one worker node that can host many programs at once:
// it announces its kernel count, gives every OpenProg frame a program
// replica (resolving the spec through resolve, or recycling an idle
// replica of a pooled spec), executes Execs against the owning replica,
// and drops or recycles it on CloseProg. It runs until the coordinator
// sends Shutdown or the connection drops, returning nil on a clean
// shutdown.
//
// Imports are staged into the replica in frame order as ExecBatch
// frames arrive; full payloads are also copied into the replica's
// region cache so later dispatches of an unchanged region arrive as a
// (key, version) reference instead of the bytes. Every frame is released
// once handled, so nothing here keeps a decoded frame.
func ServeFleet(conn net.Conn, kernels int, resolve Resolver) error {
	if kernels < 1 {
		kernels = 1
	}
	if resolve == nil {
		return errors.New("dist: nil resolver")
	}
	l := newLink(conn)
	defer l.close() //nolint:errcheck // worker owns its end
	if err := l.sendHello(kernels); err != nil {
		return err
	}

	// Completions funnel through one writer goroutine that coalesces
	// everything currently ready into a single DoneBatch frame — the
	// reply-side half of the batching protocol (batches may interleave
	// programs). A completion arrives already encoded (appendDone) in a
	// record from recordPool, which the writer recycles once the frame is
	// out. It exits when dones is closed, which happens only after every
	// kernel goroutine is gone.
	dones := make(chan *[]byte, 4*kernels+16)
	go func() {
		batch := make([]*[]byte, 0, maxDoneBatch)
		for rec := range dones {
			batch = append(batch[:0], rec)
		drain:
			for len(batch) < maxDoneBatch {
				select {
				case rec2, ok := <-dones:
					if !ok {
						break drain
					}
					batch = append(batch, rec2)
				default:
					break drain
				}
			}
			l.sendDoneRecords(batch) //nolint:errcheck // conn errors surface in recv
			for _, rec := range batch {
				if cap(*rec) <= pooledFrameCap {
					recordPool.Put(rec)
				}
			}
		}
	}()

	// Kernel goroutines: each drains its own queue, overlapping frame
	// decode, staging and replies. Bodies and export encoding hold the
	// owning replica's memory lock: imports are staged (also under the
	// lock) when the frame arrives, and DThreads dispatched concurrently
	// to one node may have overlapping regions (e.g. stencil halos), so
	// an unlocked body could overlap another's staging write. Within a
	// replica the memory behaves like the single address space it is;
	// different programs' replicas are disjoint and run concurrently.
	// The queue depth bounds how many dispatched-but-unstarted Execs a
	// kernel can absorb before the recv loop blocks; a blocked recv loop
	// cannot answer Pings, so the buffer is generous to keep heartbeat
	// replies flowing under dispatch bursts.
	var kernelWG sync.WaitGroup
	queues := make([]chan workItem, kernels)
	for k := range queues {
		queues[k] = make(chan workItem, 256)
		kernelWG.Add(1)
		go func(q <-chan workItem) {
			defer kernelWG.Done()
			var d Done // its Exports array is this kernel's, reused
			for w := range q {
				w.rep.mu.Lock()
				execOne(w.rep, w.ex, &d)
				rec := encodeDone(&d)
				w.rep.mu.Unlock()
				w.rep.pending.Add(-1)
				dones <- rec
			}
		}(queues[k])
	}
	defer func() {
		for _, q := range queues {
			close(q)
		}
		// ServeFleet must not block on in-flight bodies (the coordinator
		// may have abandoned this node mid-execution); the closer
		// goroutine retires the writer once the last kernel goroutine
		// drains.
		go func() {
			kernelWG.Wait()
			close(dones)
		}()
	}()

	// replicas, idle and parked are touched only by this recv loop; kernel
	// goroutines get replica pointers through their queues, so a CloseProg
	// delete never races an in-flight body. idle holds, per spec, the
	// pristine replicas that pooled sessions left behind. It keys on the
	// spec itself, so two programs can never share a replica, and it lives
	// as long as the connection: a worker that reconnects starts empty.
	// parked holds the emptied region caches of replicas that were not
	// recycled, for the next replicas built to cache in.
	replicas := make(map[uint32]*replica)
	idle := make(map[ProgramSpec][]*replica)
	var parked []importCache
	reps := make([]*replica, 0, 64) // per-frame staging scratch

	for {
		f, err := l.recv()
		if err != nil {
			return fmt.Errorf("dist worker: %w", err)
		}
		switch f.typ {
		case ftOpenProg:
			spec := f.open.Spec
			var rep *replica
			if pool := idle[spec]; f.open.Pooled && len(pool) > 0 {
				rep, idle[spec] = pool[len(pool)-1], pool[:len(pool)-1]
			} else if rep, err = buildReplica(resolve, spec); err != nil {
				// The one thing an open reports: nothing was built.
				l.sendProgAck(f.open.Prog, err.Error()) //nolint:errcheck // conn errors surface in recv
				break
			} else {
				parked = rep.cache.unpark(parked)
				if f.open.Pooled {
					rep.snapshotPristine()
				}
			}
			replicas[f.open.Prog] = rep
		case ftCloseProg:
			rep := replicas[f.closeProg]
			delete(replicas, f.closeProg)
			// Recycle a pooled replica only when no body is still in flight
			// (a dropped lease can close a program whose Execs are mid-run):
			// an in-flight body may still write the buffers the pristine
			// restore just rewrote. Any other replica is dropped, and its
			// region cache parked: no body reads the cache, so one still in
			// flight does not hold it.
			if rep == nil {
				break
			}
			if rep.pristine != nil && rep.pending.Load() == 0 && len(idle[rep.spec]) < maxReplicaPool {
				rep.restorePristine()
				idle[rep.spec] = append(idle[rep.spec], rep)
			} else {
				parked = rep.cache.park(parked)
			}
		case ftExecBatch:
			reps = reps[:0]
			for i := range f.execs {
				ex := &f.execs[i]
				rep := replicas[ex.Prog]
				if rep == nil {
					// The program was closed (or never opened here): the
					// coordinator's session is gone and will drop this
					// Done, but reply rather than stall the lease.
					dones <- encodeDone(&Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel, Err: fmt.Sprintf("unknown program %d on worker", ex.Prog)})
					ex.Kernel = -1 // skip the body
					reps = append(reps, nil)
					continue
				}
				rep.mu.Lock()
				err := stageImports(rep, ex)
				rep.mu.Unlock()
				if err != nil {
					dones <- encodeDone(&Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel, Err: err.Error()})
					ex.Kernel = -1 // staged nothing; skip the body
					reps = append(reps, nil)
					continue
				}
				// Imports are staged; the queued Exec only carries identity.
				ex.Imports = nil
				reps = append(reps, rep)
			}
			for i := range f.execs {
				ex := f.execs[i]
				if ex.Kernel == -1 {
					continue
				}
				k := ex.Kernel
				if k < 0 || k >= kernels {
					k = 0
				}
				reps[i].pending.Add(1)
				queues[k] <- workItem{ex: ex, rep: reps[i]}
			}
		case ftPing:
			l.sendPong(f.seq) //nolint:errcheck // conn errors surface in recv
		case ftShutdown:
			return nil
		default:
			return fmt.Errorf("dist worker: unexpected frame %v", f.typ)
		}
		// Nothing above keeps the frame: imports are staged and the
		// region cache took copies.
		f.rx.release()
	}
}

// buildReplica resolves a spec into a fresh, validated replica.
func buildReplica(resolve Resolver, spec ProgramSpec) (*replica, error) {
	prog, bufs, err := resolve(spec)
	if err == nil && prog == nil {
		err = errors.New("dist: resolver returned nil program")
	}
	if err == nil {
		err = prog.Validate()
	}
	if err != nil {
		return nil, err
	}
	templates := make(map[core.ThreadID]*core.Template)
	for _, b := range prog.Blocks {
		for _, t := range b.Templates {
			templates[t.ID] = t
		}
	}
	return &replica{
		spec:      spec,
		templates: templates,
		access:    core.NewAccessTable(prog),
		bufs:      bufs,
	}, nil
}

// snapshotPristine captures every registered buffer's build-time content
// so the replica can be recycled between sessions of the same spec.
func (rep *replica) snapshotPristine() {
	rep.pristine = make(map[string][]byte)
	for _, name := range rep.bufs.Names() {
		rep.pristine[name] = append([]byte(nil), rep.bufs.Bytes(name)...)
	}
}

// restorePristine rewinds the replica to its build-time state: buffer
// contents back to the snapshot, every region cache entry invalidated
// (the next session negotiates its own versions) but kept with its
// storage, for the next session to cache the same keys in.
func (rep *replica) restorePristine() {
	for name, data := range rep.pristine {
		copy(rep.bufs.Bytes(name), data)
	}
	for key, ent := range rep.cache.ents {
		ent.ver = 0
		rep.cache.ents[key] = ent
	}
}

// stageImports applies one Exec's import regions to its replica in
// frame order, resolving cache references and caching versioned full
// payloads. Callers hold the replica's memory lock. A staging failure
// is reported as that instance's Done and the body is skipped.
func stageImports(rep *replica, ex *Exec) error {
	for i := range ex.Imports {
		rd := &ex.Imports[i]
		if rd.Ref {
			ent := rep.cache.ents[rd.key()]
			if ent.ver == 0 || ent.ver != rd.Ver {
				return fmt.Errorf("cache reference %q[%d,+%d) v%d not cached here (coordinator/worker cache out of sync)", rd.Buffer, rd.Offset, rd.Size, rd.Ver)
			}
			if err := writeRegion(rep.bufs, RegionData{Buffer: rd.Buffer, Offset: rd.Offset, Data: ent.data}); err != nil {
				return fmt.Errorf("import %w", err)
			}
			continue
		}
		if err := writeRegion(rep.bufs, *rd); err != nil {
			return fmt.Errorf("import %w", err)
		}
		if rd.Ver != 0 {
			// The decoded payload aliases the frame, which goes back to the
			// link once staged: the cache keeps a copy.
			rep.cache.put(rd)
		}
	}
	return nil
}

// execOne runs the body (imports were staged at receive time) and fills d
// with its completion, export Data aliasing the replica's buffers: the
// caller holds the replica's lock until d is encoded, since the next
// instance may overwrite the regions. d.Exports' array is reused.
func execOne(rep *replica, ex Exec, d *Done) {
	*d = Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel, Exports: d.Exports[:0]}
	defer func() {
		if p := recover(); p != nil {
			d.Err = fmt.Sprintf("DThread %v panicked on worker: %v", ex.Inst, p)
		}
	}()
	tpl := rep.templates[ex.Inst.Thread]
	if tpl == nil {
		d.Err = fmt.Sprintf("unknown thread %d (worker program out of sync)", ex.Inst.Thread)
		return
	}
	tpl.Body(ex.Inst.Ctx)
	for _, r := range rep.access.Row(ex.Inst) {
		if !r.Write || r.Size <= 0 {
			continue
		}
		rd, err := readRegion(rep.bufs, r)
		if err != nil {
			d.Err = "export " + err.Error()
			return
		}
		d.Exports = append(d.Exports, rd)
	}
}
