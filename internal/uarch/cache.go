package uarch

import (
	"math/bits"

	"dejavuzz/internal/mem"
)

// mshr is a miss status holding register: it tracks an in-flight refill.
// Liveness semantics follow the paper's LFB example: once readyAt passes,
// the MSHR goes invalid but the line-fill buffer keeps its (now dead) data.
type mshr struct {
	valid   bool
	addr    uint64 // line-aligned
	readyAt int
}

// lfbEntry is one line-fill buffer slot paired with an MSHR; its data and
// taint words live in the cache's flat lfbData/lfbTaint arrays.
type lfbEntry struct {
	addr uint64
	used bool
}

// Cache is a set-associative, taint-shadowed cache with MSHRs and a line
// fill buffer. Fill state (tags) persists across pipeline squashes — this is
// the classic transient side channel the fuzzer probes.
type Cache struct {
	Name  string
	cfg   CacheConfig
	space *mem.Space // backing memory: a binding, not part of the state
	cacheState
}

// cacheState is everything a cache holds that a core image saves. Per-line
// arrays are indexed set*Ways+way, per-word arrays (line*words)+word, and
// the line-fill buffer's words slot*words+word.
type cacheState struct {
	tags  []uint64
	valid []bool
	lru   []int
	tagT  []uint64 // control taint: which line's *presence* is secret-dependent
	data  []uint64
	dataT []uint64

	// lineBits holds each line's tainted-bit total (tag plus data shadows);
	// census counts the lines (see census.go).
	lineBits []int
	census   taintCount

	mshrs    []mshr
	lfb      []lfbEntry
	lfbData  []uint64
	lfbTaint []uint64

	// fetchBusyUntil models the B4 mechanism for the icache: an in-flight
	// refill occupies the fetch port even if the requesting fetch squashes.
	fetchBusyUntil int

	Accesses int
	Misses   int
}

// newCacheState allocates an empty (all-invalid) cache of a geometry.
func newCacheState(cfg CacheConfig) cacheState {
	lines, words := cfg.Sets*cfg.Ways, cfg.LineBytes/8
	return cacheState{
		tags:     make([]uint64, lines),
		valid:    make([]bool, lines),
		lru:      make([]int, lines),
		tagT:     make([]uint64, lines),
		data:     make([]uint64, lines*words),
		dataT:    make([]uint64, lines*words),
		lineBits: make([]int, lines),
		mshrs:    make([]mshr, cfg.MSHRs),
		lfb:      make([]lfbEntry, cfg.MSHRs),
		lfbData:  make([]uint64, cfg.MSHRs*words),
		lfbTaint: make([]uint64, cfg.MSHRs*words),
	}
}

// copyFrom makes s a copy of src, reusing s's arrays.
func (s *cacheState) copyFrom(src *cacheState) {
	d := *s
	*s = *src
	s.tags = reuse(d.tags, src.tags)
	s.valid = reuse(d.valid, src.valid)
	s.lru = reuse(d.lru, src.lru)
	s.tagT = reuse(d.tagT, src.tagT)
	s.data = reuse(d.data, src.data)
	s.dataT = reuse(d.dataT, src.dataT)
	s.lineBits = reuse(d.lineBits, src.lineBits)
	s.mshrs = reuse(d.mshrs, src.mshrs)
	s.lfb = reuse(d.lfb, src.lfb)
	s.lfbData = reuse(d.lfbData, src.lfbData)
	s.lfbTaint = reuse(d.lfbTaint, src.lfbTaint)
}

// NewCache builds a cache over the backing space.
func NewCache(name string, cfg CacheConfig, space *mem.Space) *Cache {
	return &Cache{Name: name, cfg: cfg, space: space, cacheState: newCacheState(cfg)}
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }
func (c *Cache) setOf(addr uint64) int {
	return int(addr / uint64(c.cfg.LineBytes) % uint64(c.cfg.Sets))
}
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineBytes) / uint64(c.cfg.Sets)
}

// line is the per-line array index of (set, way).
func (c *Cache) line(set, way int) int { return set*c.cfg.Ways + way }

// words returns the line's data and taint words.
func (c *Cache) words(set, way int) (data, taint []uint64) {
	n := c.cfg.LineBytes / 8
	i := c.line(set, way) * n
	return c.data[i : i+n], c.dataT[i : i+n]
}

// setLineBits records a new tainted-bit total for the line at (set, way),
// keeping the census exact.
func (c *Cache) setLineBits(set, way, n int) {
	i := c.line(set, way)
	c.census.move(c.lineBits[i], n)
	c.lineBits[i] = n
}

// lineBitsAt is the line's tainted-bit total.
func (c *Cache) lineBitsAt(set, way int) int { return c.lineBits[c.line(set, way)] }

// AccessResult reports the outcome of a cache access.
type AccessResult struct {
	Latency int
	Hit     bool
	Set     int
	Way     int
}

func (c *Cache) findWay(set int, tag uint64) int {
	for w := 0; w < c.cfg.Ways; w++ {
		if i := c.line(set, w); c.valid[i] && c.tags[i] == tag {
			return w
		}
	}
	return -1
}

func (c *Cache) touch(set, way int) {
	lru := c.lru[c.line(set, 0):c.line(set+1, 0)]
	for w := range lru {
		lru[w]++
	}
	lru[way] = 0
}

func (c *Cache) victim(set int) int {
	vw, age := 0, -1
	for w := 0; w < c.cfg.Ways; w++ {
		i := c.line(set, w)
		if !c.valid[i] {
			return w
		}
		if c.lru[i] > age {
			age = c.lru[i]
			vw = w
		}
	}
	return vw
}

// Probe reports hit/miss without side effects (used by timing receivers).
func (c *Cache) Probe(addr uint64) bool {
	return c.findWay(c.setOf(addr), c.tagOf(addr)) >= 0
}

// Access performs a (possibly filling) cache access at the given cycle and
// returns latency and placement. The fill reads backing memory through the
// raw (permission-free) path: refills are a microarchitectural action.
func (c *Cache) Access(addr uint64, cycle int) AccessResult {
	c.Accesses++
	line := c.lineAddr(addr)
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.touch(set, w)
		return AccessResult{Latency: c.cfg.HitLat, Hit: true, Set: set, Way: w}
	}
	c.Misses++
	// Merge with an in-flight MSHR for the same line.
	lat := c.cfg.MissLat
	mi := -1
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.valid && cycle >= m.readyAt {
			m.valid = false // retire completed refill; LFB data goes stale
		}
		if m.valid && m.addr == line {
			if rem := m.readyAt - cycle; rem > 0 {
				lat = rem
			} else {
				lat = c.cfg.HitLat
			}
			mi = i
			break
		}
	}
	if mi < 0 {
		// Allocate an MSHR; stall for the oldest if all busy.
		free := -1
		oldest := 0
		for i := range c.mshrs {
			if !c.mshrs[i].valid {
				free = i
				break
			}
			if c.mshrs[i].readyAt < c.mshrs[oldest].readyAt {
				oldest = i
			}
		}
		if free < 0 {
			stall := c.mshrs[oldest].readyAt - cycle
			if stall < 0 {
				stall = 0
			}
			lat += stall
			c.mshrs[oldest].valid = false
			free = oldest
		}
		c.mshrs[free] = mshr{valid: true, addr: line, readyAt: cycle + lat}
		mi = free
	}
	// Perform the fill now (timing is charged via lat); stage through LFB.
	way := c.victim(set)
	li := c.line(set, way)
	c.tags[li] = tag
	c.valid[li] = true
	c.tagT[li] = 0
	c.touch(set, way)
	data, dataT := c.words(set, way)
	lfb := mi * len(data)
	lineBits := 0
	for i := range data {
		v, t := c.space.Read64(line + uint64(i*8))
		data[i] = v
		dataT[i] = t
		c.lfbData[lfb+i] = v
		c.lfbTaint[lfb+i] = t
		lineBits += bits.OnesCount64(t)
	}
	c.setLineBits(set, way, lineBits)
	c.lfb[mi].addr = line
	c.lfb[mi].used = true
	return AccessResult{Latency: lat, Hit: false, Set: set, Way: way}
}

// TaintTag marks a line's presence as secret-dependent (applied by the
// control-taint fabric when a tainted address selected the fill).
func (c *Cache) TaintTag(set, way int) {
	if set < c.cfg.Sets && way < c.cfg.Ways {
		i := c.line(set, way)
		c.setLineBits(set, way, c.lineBits[i]-bits.OnesCount64(c.tagT[i])+64)
		c.tagT[i] = ^uint64(0)
	}
}

// Read64 returns the cached word and taint at addr (must be resident).
func (c *Cache) Read64(addr uint64) (v, t uint64) {
	set := c.setOf(addr)
	if w := c.findWay(set, c.tagOf(addr)); w >= 0 {
		data, dataT := c.words(set, w)
		idx := int(addr%uint64(c.cfg.LineBytes)) / 8
		return data[idx], dataT[idx]
	}
	return c.space.Read64(addr)
}

// Write64 updates a resident line (write-through to backing memory).
func (c *Cache) Write64(addr uint64, v, t uint64) {
	set := c.setOf(addr)
	if w := c.findWay(set, c.tagOf(addr)); w >= 0 {
		data, dataT := c.words(set, w)
		idx := int(addr%uint64(c.cfg.LineBytes)) / 8
		c.setLineBits(set, w, c.lineBitsAt(set, w)-bits.OnesCount64(dataT[idx])+bits.OnesCount64(t))
		data[idx] = v
		dataT[idx] = t
	}
	c.space.Write64(addr, v, t)
}

// FlushAll invalidates every line (the swap runtime's icache flush).
// Taint shadows are cleared with the data: flushed lines hold nothing.
func (c *Cache) FlushAll() {
	clear(c.valid)
	clear(c.tagT)
	clear(c.dataT)
	clear(c.lineBits)
	c.census = taintCount{}
}

// MSHRLive reports whether any MSHR tracking the LFB slot i is still valid.
func (c *Cache) MSHRLive(i int, cycle int) bool {
	return c.mshrs[i].valid && cycle < c.mshrs[i].readyAt
}

// Census reports the cache lines holding tag or data taint and their
// tainted bits. LFB slots are counted separately by LFBCensus.
func (c *Cache) Census() (tainted, bitCount int) { return c.census.elems, c.census.bits }

// LFBCensus counts tainted line-fill-buffer slots; live reports only those
// whose MSHR is still valid (the liveness-annotated view).
func (c *Cache) LFBCensus(cycle int) (tainted, live int) {
	words := c.cfg.LineBytes / 8
	for i := range c.lfb {
		if !c.lfb[i].used {
			continue
		}
		any := false
		for _, t := range c.lfbTaint[i*words : (i+1)*words] {
			if t != 0 {
				any = true
				break
			}
		}
		if any {
			tainted++
			if c.MSHRLive(i, cycle) {
				live++
			}
		}
	}
	return tainted, live
}

// TaintedLines returns (set, way) pairs whose tag is control-tainted: the
// secret-indexed fills that a prime+probe receiver could observe.
type LinePos struct{ Set, Way int }

// TaintedLinePositions lists lines with tag taint and whether each is valid.
func (c *Cache) TaintedLinePositions() []LinePos {
	var out []LinePos
	for i, t := range c.tagT {
		if t != 0 && c.valid[i] {
			out = append(out, LinePos{Set: i / c.cfg.Ways, Way: i % c.cfg.Ways})
		}
	}
	return out
}
