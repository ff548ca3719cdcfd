// Package mem models the memory hierarchy of the simulated TFluxHard
// machine: per-core L1 and L2 caches kept coherent with a MESI snooping
// protocol over a shared bus, backed by main memory.
//
// It replaces the Simics "gcache" modules of the paper's §6.1.1 setup.
// Timing is latency-based: every access returns the number of cycles it
// costs given the current cache and coherence state; the caller (the
// TFluxHard core model) adds those cycles to the simulated clock. The
// model is deterministic.
//
// Structure notes: the L1 is modelled write-through/no-write-allocate-free
// (it never holds dirty data), so all MESI state lives at the private L2,
// which is write-back; L1 lines are strict subsets of L2 lines and are
// back-invalidated whenever the covering L2 line leaves the cache. This
// two-level arrangement matches the paper's per-processor 32 KB L1 /
// 2 MB L2 configuration while keeping coherence bookkeeping in one place.
package mem

// MESIState is the coherence state of an L2 line.
type MESIState uint8

// The four MESI states.
const (
	Invalid MESIState = iota
	Shared
	Exclusive
	Modified
)

func (s MESIState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size     int64 // total bytes
	Line     int64 // line size in bytes (power of two)
	Ways     int   // associativity
	ReadLat  int64 // cycles for a hit on read
	WriteLat int64 // cycles for a hit on write
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int64 { return c.Size / (c.Line * int64(c.Ways)) }

type line struct {
	tag   uint64
	lru   uint64
	gen   uint32    // the line is valid while this equals its cache's gen
	state MESIState // meaningful only at L2
}

// cache is one set-associative cache array with LRU replacement. Set s
// holds lines[s*ways : (s+1)*ways].
type cache struct {
	cfg   CacheConfig
	lines []line
	ways  uint64
	mask  uint64
	shift int // log2(set count)
	tick  uint64
	gen   uint32 // stamp of the valid lines; never 0, so a zeroed line is invalid
}

func newCache(cfg CacheConfig) *cache {
	nsets := cfg.Sets()
	if nsets <= 0 || cfg.Line <= 0 || cfg.Ways <= 0 {
		panic("mem: invalid cache geometry")
	}
	c := &cache{cfg: cfg, ways: uint64(cfg.Ways), mask: uint64(nsets - 1), gen: 1}
	if nsets&(nsets-1) != 0 {
		panic("mem: set count must be a power of two")
	}
	c.shift = setsBits(c.mask)
	c.lines = make([]line, int(nsets)*cfg.Ways)
	return c
}

// reset invalidates every line by moving to the next generation stamp; the
// array is cleared only when the stamp wraps, so no stale stamp can match.
func (c *cache) reset() {
	c.tick = 0
	c.gen++
	if c.gen == 0 {
		clear(c.lines)
		c.gen = 1
	}
}

func (c *cache) set(set uint64) []line {
	return c.lines[set*c.ways : (set+1)*c.ways]
}

func (c *cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr / uint64(c.cfg.Line)
	return blk & c.mask, blk >> uint64(c.shift)
}

func setsBits(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// lookup returns the line holding addr, or nil.
func (c *cache) lookup(addr uint64) *line {
	set, tag := c.index(addr)
	c.tick++
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.gen == c.gen && l.tag == tag {
			l.lru = c.tick
			return l
		}
	}
	return nil
}

// insert places addr in the cache and returns the inserted line plus the
// evicted victim and whether it was valid (false when the slot was free).
// The victim copy is taken before overwrite.
func (c *cache) insert(addr uint64) (*line, line, bool) {
	set, tag := c.index(addr)
	c.tick++
	ways := c.set(set)
	victimIdx := 0
	for i := range ways {
		if ways[i].gen != c.gen {
			victimIdx = i
			break
		}
		if ways[i].lru < ways[victimIdx].lru {
			victimIdx = i
		}
	}
	victim := ways[victimIdx]
	ways[victimIdx] = line{tag: tag, gen: c.gen, lru: c.tick}
	return &ways[victimIdx], victim, victim.gen == c.gen
}

// invalidate drops addr's line if present, returning its prior state.
func (c *cache) invalidate(addr uint64) (MESIState, bool) {
	l := c.lookup(addr)
	if l == nil {
		return Invalid, false
	}
	st := l.state
	*l = line{}
	return st, true
}

// lineBase returns the address of the first byte of the victim line given
// the set it lived in (needed for back-invalidation).
func (c *cache) lineBase(set uint64, v line) uint64 {
	blk := v.tag<<uint64(c.shift) | set
	return blk * uint64(c.cfg.Line)
}
