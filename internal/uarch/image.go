package uarch

import (
	"maps"
	"sync"

	"dejavuzz/internal/mem"
)

// Image is a core's complete simulation state as a value: its configuration
// and IFT mode, the pipeline (RoB, queues, architectural registers, census
// counters, statistics and bug witnesses), every cache, TLB and predictor,
// and the trace so far. It holds no bindings: the address space, the trap
// hook and the units' links to the space and to each other belong to the
// core an image is restored into.
//
// Saved at a cycle boundary and restored into a core whose space and swap
// runtime are restored to the same cycle, an image continues the run
// exactly. Reset restores a configuration's pristine image, so construction,
// reset and snapshot restore are one code path.
type Image struct {
	cfg  Config
	mode IFTMode
	pipe pipeState

	icache, dcache    cacheState
	itlb, dtlb, l2tlb tlbState
	bht               bhtState
	btb, faubtb, ind  btbState
	ras               rasState
	loop              loopState
	trace             Trace
}

// Save copies the core's state into img, reusing img's storage. The core
// must be at a cycle boundary: control-taint events noted during a cycle
// hold closures over the core, and a pair resolves them before the next one.
func (c *Core) Save(img *Image) {
	if len(c.pendingCtl) > 0 {
		panic("uarch: Save with unresolved control-taint events (not at a cycle boundary)")
	}
	img.cfg, img.mode = c.Cfg, c.Mode
	img.pipe.copyFrom(&c.pipeState)
	img.icache.copyFrom(&c.ICache.cacheState)
	img.dcache.copyFrom(&c.DCache.cacheState)
	img.itlb.copyFrom(&c.ITLB.tlbState)
	img.dtlb.copyFrom(&c.DTLB.tlbState)
	img.l2tlb.copyFrom(&c.L2TLB.tlbState)
	img.bht.copyFrom(&c.bht.bhtState)
	img.btb.copyFrom(&c.btb.btbState)
	img.faubtb.copyFrom(&c.faubtb.btbState)
	img.ind.copyFrom(&c.ind.btbState)
	img.ras.copyFrom(&c.ras.rasState)
	img.loop.copyFrom(&c.loop.loopState)
	img.trace.copyFrom(c.Trace)
}

// Restore replaces the core's state with a copy of img's, reusing the
// core's storage and keeping its bindings: the caches read and write the
// core's address space and the trap hook stays attached.
func (c *Core) Restore(img *Image) {
	cfg := img.cfg
	c.Cfg, c.Mode = cfg, img.mode
	c.pipeState.copyFrom(&img.pipe)
	c.pendingCtl = c.pendingCtl[:0]

	c.ICache = restoreCache(c.ICache, "icache", cfg.ICache, c.Mem, &img.icache)
	c.DCache = restoreCache(c.DCache, "dcache", cfg.DCache, c.Mem, &img.dcache)
	c.L2TLB = restoreTLB(c.L2TLB, "l2tlb", cfg.L2TLB, nil, &img.l2tlb)
	c.ITLB = restoreTLB(c.ITLB, "itlb", cfg.ITLB, c.L2TLB, &img.itlb)
	c.DTLB = restoreTLB(c.DTLB, "dtlb", cfg.DTLB, c.L2TLB, &img.dtlb)

	if c.bht == nil {
		c.bht = &BHT{}
	}
	c.bht.copyFrom(&img.bht)
	c.btb = restoreBTB(c.btb, "btb", 1, &img.btb)
	c.faubtb = restoreBTB(c.faubtb, "faubtb", 1, &img.faubtb)
	c.ind = restoreBTB(c.ind, "ind", cfg.IndirectMinConf, &img.ind)
	if c.ras == nil {
		c.ras = &RAS{}
	}
	c.ras.copyFrom(&img.ras)
	if c.loop == nil {
		c.loop = &LoopPredictor{}
	}
	c.loop.tripMax = cfg.LoopTripMax
	c.loop.copyFrom(&img.loop)

	if c.Trace == nil {
		c.Trace = &Trace{}
	}
	c.Trace.copyFrom(&img.trace)
}

func restoreCache(c *Cache, name string, cfg CacheConfig, space *mem.Space, st *cacheState) *Cache {
	if c == nil {
		c = &Cache{}
	}
	c.Name, c.cfg, c.space = name, cfg, space
	c.copyFrom(st)
	return c
}

func restoreTLB(t *TLB, name string, cfg TLBConfig, next *TLB, st *tlbState) *TLB {
	if t == nil {
		t = &TLB{}
	}
	t.Name, t.cfg, t.next = name, cfg, next
	t.copyFrom(st)
	return t
}

func restoreBTB(b *BTB, name string, minConf int, st *btbState) *BTB {
	if b == nil {
		b = &BTB{}
	}
	b.Name, b.minConf = name, max(minConf, 1)
	b.copyFrom(st)
	return b
}

// pristineImages holds one construction-time image per configuration.
var pristineImages sync.Map // Config -> *Image

// pristineImage returns cfg's construction-time image: every structure
// empty and sized by cfg. Each is built once per process and only read.
func pristineImage(cfg Config) *Image {
	if img, ok := pristineImages.Load(cfg); ok {
		return img.(*Image)
	}
	img, _ := pristineImages.LoadOrStore(cfg, &Image{
		cfg: cfg,
		pipe: pipeState{
			rob:           make([]robEntry, cfg.ROBEntries),
			trapPendingAt: -1,
			ldq:           make([]queueEntry, cfg.LDQEntries),
			stq:           make([]queueEntry, cfg.STQEntries),
			ldqFree:       cfg.LDQEntries,
			stqFree:       cfg.STQEntries,
			wbPorts:       make([]int32, wbRingLen(cfg)),
			noted:         map[uint64]notedVal{},
		},
		icache: newCacheState(cfg.ICache),
		dcache: newCacheState(cfg.DCache),
		itlb:   NewTLB("", cfg.ITLB, nil).tlbState,
		dtlb:   NewTLB("", cfg.DTLB, nil).tlbState,
		l2tlb:  NewTLB("", cfg.L2TLB, nil).tlbState,
		bht:    NewBHT(cfg.BHTEntries).bhtState,
		btb:    NewBTB("", cfg.BTBEntries).btbState,
		faubtb: NewBTB("", cfg.FauBTBEntries).btbState,
		ind:    NewBTB("", cfg.BTBEntries).btbState,
		ras:    NewRAS(cfg.RASEntries).rasState,
		loop:   NewLoopPredictor(cfg.LoopEntries, cfg.LoopTripMax).loopState,
	})
	return img.(*Image)
}

// wbRingLen sizes the load write-back ring: the next power of two above
// the longest latency a load can book ahead unless MSHR stalls chain — both
// TLB levels missing, a cache miss waiting out one busy MSHR, and every
// load-queue entry queueing for the write-back port.
func wbRingLen(cfg Config) int {
	lat := 1 + cfg.DTLB.HitLat + cfg.DTLB.MissLat + cfg.L2TLB.HitLat + cfg.L2TLB.MissLat +
		2*cfg.DCache.MissLat + cfg.LDQEntries
	n := 1
	for n <= lat {
		n <<= 1
	}
	return n
}

// reuse returns a copy of src stored in dst's array when it fits.
func reuse[T any](dst, src []T) []T { return append(dst[:0], src...) }

// reuseMap returns a copy of src stored in dst (allocated when nil).
func reuseMap[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	} else {
		clear(dst)
	}
	maps.Copy(dst, src)
	return dst
}
