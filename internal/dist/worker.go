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

// cacheEntry is one worker-cached import region: the payload bytes at a
// coordinator-assigned version.
type cacheEntry struct {
	ver  uint64
	data []byte
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
	cache  map[regionKey]cacheEntry
	mu     sync.Mutex

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
// a fresh call of it regardless of spec. This is the Coordinate-side
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
// frames arrive; full payloads are also retained in the replica's
// region cache so later dispatches of an unchanged region arrive as a
// (key, version) reference instead of the bytes.
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
	// programs). It exits when dones is closed, which happens only after
	// every kernel goroutine is gone.
	dones := make(chan *Done, 4*kernels+16)
	go func() {
		batch := make([]Done, 0, maxDoneBatch)
		for d := range dones {
			batch = append(batch[:0], *d)
		drain:
			for len(batch) < maxDoneBatch {
				select {
				case d2, ok := <-dones:
					if !ok {
						break drain
					}
					batch = append(batch, *d2)
				default:
					break drain
				}
			}
			l.sendDoneBatch(batch) //nolint:errcheck // conn errors surface in recv
		}
	}()

	// Kernel goroutines: each drains its own queue, overlapping frame
	// decode, staging and replies. Bodies and export collection hold the
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
			for w := range q {
				w.rep.mu.Lock()
				done := execOne(w.rep, w.ex)
				w.rep.mu.Unlock()
				w.rep.pending.Add(-1)
				dones <- done
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

	// replicas and idle are touched only by this recv loop; kernel
	// goroutines get replica pointers through their queues, so a CloseProg
	// delete never races an in-flight body. idle holds, per spec, the
	// pristine replicas that pooled sessions left behind. It keys on the
	// spec itself, so two programs can never share a replica, and it lives
	// as long as the connection: a worker that reconnects starts empty.
	replicas := make(map[uint32]*replica)
	idle := make(map[ProgramSpec][]*replica)
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
				continue
			} else if f.open.Pooled {
				rep.snapshotPristine()
			}
			replicas[f.open.Prog] = rep
		case ftCloseProg:
			rep := replicas[f.closeProg]
			delete(replicas, f.closeProg)
			// Recycle a pooled replica only when no body is still in flight
			// (a dropped lease can close a program whose Execs are mid-run):
			// an in-flight body may still write the buffers the pristine
			// restore just rewrote.
			if rep != nil && rep.pristine != nil && rep.pending.Load() == 0 && len(idle[rep.spec]) < maxReplicaPool {
				rep.restorePristine()
				idle[rep.spec] = append(idle[rep.spec], rep)
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
					dones <- &Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel, Err: fmt.Sprintf("unknown program %d on worker", ex.Prog)}
					ex.Kernel = -1 // skip the body
					reps = append(reps, nil)
					continue
				}
				rep.mu.Lock()
				err := stageImports(rep, ex)
				rep.mu.Unlock()
				if err != nil {
					dones <- &Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel, Err: err.Error()}
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
		cache:     make(map[regionKey]cacheEntry),
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
// contents back to the snapshot, region cache emptied (the next session
// negotiates its own versions).
func (rep *replica) restorePristine() {
	for name, data := range rep.pristine {
		copy(rep.bufs.Bytes(name), data)
	}
	clear(rep.cache)
}

// stageImports applies one Exec's import regions to its replica in
// frame order, resolving cache references and retaining versioned full
// payloads. Callers hold the replica's memory lock. A staging failure
// is reported as that instance's Done and the body is skipped.
func stageImports(rep *replica, ex *Exec) error {
	for i := range ex.Imports {
		rd := &ex.Imports[i]
		if rd.Ref {
			ent, ok := rep.cache[rd.key()]
			if !ok || ent.ver != rd.Ver {
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
			// The decoded payload aliases the frame buffer, which the
			// worker owns once decoded — safe to retain without a copy.
			rep.cache[rd.key()] = cacheEntry{ver: rd.Ver, data: rd.Data}
		}
	}
	return nil
}

// execOne runs the body (imports were staged at receive time) and
// collects exports from the replica. Callers hold the replica's lock.
func execOne(rep *replica, ex Exec) (done *Done) {
	done = &Done{Prog: ex.Prog, Inst: ex.Inst, Kernel: ex.Kernel}
	defer func() {
		if p := recover(); p != nil {
			done.Err = fmt.Sprintf("DThread %v panicked on worker: %v", ex.Inst, p)
		}
	}()
	tpl := rep.templates[ex.Inst.Thread]
	if tpl == nil {
		done.Err = fmt.Sprintf("unknown thread %d (worker program out of sync)", ex.Inst.Thread)
		return done
	}
	tpl.Body(ex.Inst.Ctx)
	// Collect exports from the replica. readRegion copies: the replica
	// region may be overwritten by the next instance before the writer
	// goroutine serializes this Done.
	regs := rep.access.Row(ex.Inst)
	n := 0
	for _, r := range regs {
		if r.Write && r.Size > 0 {
			n++
		}
	}
	if n > 0 {
		done.Exports = make([]RegionData, 0, n)
	}
	for _, r := range regs {
		if !r.Write || r.Size <= 0 {
			continue
		}
		rd, err := readRegion(rep.bufs, r)
		if err != nil {
			done.Err = "export " + err.Error()
			return done
		}
		done.Exports = append(done.Exports, rd)
	}
	return done
}
