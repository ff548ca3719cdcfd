package mem

import "sync"

// Config describes the full memory system of one simulated machine.
type Config struct {
	L1     CacheConfig
	L2     CacheConfig
	MemLat int64 // main-memory access latency (cycles)
	C2CLat int64 // cache-to-cache transfer latency
	BusLat int64 // bus arbitration cost per snooping transaction
	// CleanC2C supplies clean shared lines from a remote on-chip cache at
	// C2CLat instead of going to memory — the realistic choice for a CMP,
	// where another core's L2 is far closer than DRAM. Off, only Modified
	// lines transfer cache-to-cache (classic MESI).
	CleanC2C bool
}

// DefaultConfig returns the paper's §6.1.1 per-processor configuration:
// 32 KB 4-way L1 with 64 B lines (2-cycle read, 0-cycle write), private
// 2 MB 8-way L2 with 128 B lines (20-cycle read/write), plus conventional
// main-memory and bus costs for a mid-2000s CMP.
func DefaultConfig() Config {
	return Config{
		L1:       CacheConfig{Size: 32 << 10, Line: 64, Ways: 4, ReadLat: 2, WriteLat: 0},
		L2:       CacheConfig{Size: 2 << 20, Line: 128, Ways: 8, ReadLat: 20, WriteLat: 20},
		MemLat:   200,
		C2CLat:   60,
		BusLat:   10,
		CleanC2C: true,
	}
}

// X86Config returns the geometry of the paper's companion experiment
// (§6.1.2): a simulated 9-core x86 system "similar to Bagle" on which the
// speedups and conclusions matched the Sparc machine. Cache parameters
// follow the Core2-class geometry of §6.2.1 (32 KB 8-way L1 at 3 cycles,
// 4 MB 16-way L2 at 14 cycles).
func X86Config() Config {
	return Config{
		L1:       CacheConfig{Size: 32 << 10, Line: 64, Ways: 8, ReadLat: 3, WriteLat: 0},
		L2:       CacheConfig{Size: 4 << 20, Line: 64, Ways: 16, ReadLat: 14, WriteLat: 14},
		MemLat:   180,
		C2CLat:   50,
		BusLat:   8,
		CleanC2C: true,
	}
}

// Stats aggregates memory-system activity across all cores.
type Stats struct {
	Accesses        int64 // line-granularity accesses processed
	L1Hits          int64
	L2Hits          int64
	L2Misses        int64
	CoherenceMisses int64 // L2 misses/upgrades caused by another core holding the line
	Invalidations   int64 // lines invalidated in remote caches
	Writebacks      int64 // dirty lines written back (snoop or eviction)
	C2CTransfers    int64 // dirty-line cache-to-cache supplies
	Upgrades        int64 // S→M upgrade transactions
}

type node struct {
	l1 *cache
	l2 *cache
}

// Hierarchy is the coherent memory system shared by the cores of one
// simulated machine. It is not safe for concurrent use: the deterministic
// simulation engine serializes all accesses.
type Hierarchy struct {
	cfg   Config
	nodes []*node
	stats Stats
}

// maxFree bounds the released hierarchies kept for reuse. Eight cores of
// DefaultConfig hold 3.2 MB of lines, nine of X86Config 13.6 MB.
const maxFree = 4

// free holds released hierarchies, oldest first. Building one allocates
// and zeroes every line array, which a simulator re-running programs
// would otherwise pay on each run.
var free struct {
	sync.Mutex
	list []*Hierarchy
}

// NewHierarchy builds the memory system for n cores, reusing a released
// one of the same shape when there is one. Either way it starts with
// every line invalid and zeroed counters.
func NewHierarchy(n int, cfg Config) *Hierarchy {
	if n < 1 {
		panic("mem: need at least one core")
	}
	free.Lock()
	for i, h := range free.list {
		if len(h.nodes) == n && h.cfg == cfg {
			free.list = append(free.list[:i], free.list[i+1:]...)
			free.Unlock()
			h.reset()
			return h
		}
	}
	free.Unlock()
	h := &Hierarchy{cfg: cfg, nodes: make([]*node, n)}
	for i := range h.nodes {
		h.nodes[i] = &node{l1: newCache(cfg.L1), l2: newCache(cfg.L2)}
	}
	return h
}

// Release hands h back for a later NewHierarchy of the same shape. The
// caller must not use h afterwards.
func (h *Hierarchy) Release() {
	free.Lock()
	if len(free.list) == maxFree {
		free.list = append(free.list[:0], free.list[1:]...)
	}
	free.list = append(free.list, h)
	free.Unlock()
}

// reset returns h to the state NewHierarchy builds: every line invalid,
// LRU clocks and counters at zero.
func (h *Hierarchy) reset() {
	for _, n := range h.nodes {
		n.l1.reset()
		n.l2.reset()
	}
	h.stats = Stats{}
}

// Cores returns the number of cores sharing the hierarchy.
func (h *Hierarchy) Cores() int { return len(h.nodes) }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Access simulates core `c` touching [addr, addr+size) and returns the
// total cycle cost. The range is walked at L1-line granularity; coherence
// acts at L2-line granularity.
func (h *Hierarchy) Access(c int, addr uint64, size int64, write bool) int64 {
	if size <= 0 {
		return 0
	}
	lineSz := uint64(h.cfg.L1.Line)
	first := addr &^ (lineSz - 1)
	last := (addr + uint64(size) - 1) &^ (lineSz - 1)
	var cost int64
	for a := first; ; a += lineSz {
		cost += h.accessLine(c, a, write)
		if a == last {
			break
		}
	}
	return cost
}

// State reports the MESI state of addr's line in core c's L2 (for tests).
func (h *Hierarchy) State(c int, addr uint64) MESIState {
	if l := h.nodes[c].l2.lookup(addr); l != nil {
		return l.state
	}
	return Invalid
}

// accessLine handles one L1-line access by core c.
func (h *Hierarchy) accessLine(c int, addr uint64, write bool) int64 {
	h.stats.Accesses++
	n := h.nodes[c]
	var cost int64

	if n.l1.lookup(addr) != nil {
		h.stats.L1Hits++
		if !write {
			return h.cfg.L1.ReadLat
		}
		cost = h.cfg.L1.WriteLat
		// Write permission is governed by the L2 state (L1 is
		// write-through): escalate if the line is not exclusive.
		l2 := n.l2.lookup(addr)
		if l2 == nil {
			// Inclusion was broken by an L2 eviction racing this access
			// path; treat as L1 miss.
			n.l1.invalidate(addr)
			return cost + h.l1Miss(c, addr, write)
		}
		return cost + h.ensureWritable(c, addr, l2)
	}
	return cost + h.l1Miss(c, addr, write)
}

// l1Miss services an L1 miss from the L2 or the bus.
func (h *Hierarchy) l1Miss(c int, addr uint64, write bool) int64 {
	n := h.nodes[c]
	var cost int64
	l2 := n.l2.lookup(addr)
	if l2 != nil {
		h.stats.L2Hits++
		cost += h.cfg.L2.ReadLat
		if write {
			cost += h.ensureWritable(c, addr, l2)
		}
		h.fillL1(c, addr)
		return cost
	}
	// L2 miss: bus transaction with snooping.
	h.stats.L2Misses++
	cost += h.cfg.BusLat
	remote, anyRemote := h.snoop(c, addr, write)
	if anyRemote {
		h.stats.CoherenceMisses++
	}
	switch {
	case remote == Modified:
		// Dirty supply: owner writes back and transfers.
		h.stats.C2CTransfers++
		cost += h.cfg.C2CLat
	case anyRemote && h.cfg.CleanC2C && !write:
		// Clean on-chip supply from a sharer's L2.
		h.stats.C2CTransfers++
		cost += h.cfg.C2CLat
	default:
		cost += h.cfg.MemLat
	}
	st := Exclusive
	if write {
		st = Modified
	} else if anyRemote {
		st = Shared
	}
	cost += h.fillL2(c, addr, st)
	h.fillL1(c, addr)
	return cost
}

// ensureWritable upgrades core c's L2 line holding addr to Modified,
// invalidating remote sharers when needed, and returns the cycle cost.
func (h *Hierarchy) ensureWritable(c int, addr uint64, l2 *line) int64 {
	switch l2.state {
	case Modified:
		return 0
	case Exclusive:
		l2.state = Modified
		return 0
	case Shared:
		// BusUpgr: invalidate every other copy. The SWMR invariant
		// guarantees no remote Modified copy exists while we hold Shared.
		h.stats.Upgrades++
		h.stats.CoherenceMisses++
		for i, rn := range h.nodes {
			if i == c {
				continue
			}
			if rl := rn.l2.lookup(addr); rl != nil {
				*rl = line{}
				h.backInvalL1(rn, addr)
				h.stats.Invalidations++
			}
		}
		l2.state = Modified
		return h.cfg.BusLat
	}
	panic("mem: write to invalid L2 line")
}

// backInvalL1 invalidates every L1 line of node n covered by the L2 line
// containing addr (inclusion maintenance).
func (h *Hierarchy) backInvalL1(n *node, addr uint64) {
	base := addr &^ uint64(h.cfg.L2.Line-1)
	for a := base; a < base+uint64(h.cfg.L2.Line); a += uint64(h.cfg.L1.Line) {
		n.l1.invalidate(a)
	}
}

// snoop visits every remote L2 for addr's line. For a write (BusRdX) all
// remote copies are invalidated (dirty ones written back). For a read
// (BusRd) a Modified owner is downgraded to Shared with writeback, and an
// Exclusive owner is downgraded to Shared. It returns the strongest remote
// state found and whether any remote copy existed.
func (h *Hierarchy) snoop(c int, addr uint64, write bool) (MESIState, bool) {
	strongest := Invalid
	any := false
	for i, rn := range h.nodes {
		if i == c {
			continue
		}
		l := rn.l2.lookup(addr)
		if l == nil {
			continue
		}
		any = true
		if l.state > strongest {
			strongest = l.state
		}
		if write {
			if l.state == Modified {
				h.stats.Writebacks++
			}
			*l = line{}
			h.backInvalL1(rn, addr)
			h.stats.Invalidations++
		} else {
			if l.state == Modified {
				h.stats.Writebacks++
			}
			l.state = Shared
		}
	}
	return strongest, any
}

// fillL2 inserts addr into core c's L2 with the given state, handling
// victim writeback and L1 back-invalidation. Returns extra cycles.
func (h *Hierarchy) fillL2(c int, addr uint64, st MESIState) int64 {
	n := h.nodes[c]
	var cost int64
	set, _ := n.l2.index(addr)
	l, victim, evicted := n.l2.insert(addr)
	l.state = st
	if evicted {
		base := n.l2.lineBase(set, victim)
		if victim.state == Modified {
			h.stats.Writebacks++
			cost += h.cfg.BusLat
		}
		// Back-invalidate the L1 lines covered by the evicted L2 line.
		for a := base; a < base+uint64(h.cfg.L2.Line); a += uint64(h.cfg.L1.Line) {
			n.l1.invalidate(a)
		}
	}
	return cost
}

// fillL1 inserts addr into core c's L1 (evictions are silent: the L1 never
// holds dirty data).
func (h *Hierarchy) fillL1(c int, addr uint64) {
	h.nodes[c].l1.insert(addr)
}
