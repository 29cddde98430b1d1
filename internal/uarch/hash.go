package uarch

import "hash/fnv"

// TimingHash digests the final state of the timing components (caches,
// TLBs, predictors) — the differential oracle SpecDoctor compares between
// secret variants. includeData additionally hashes cache data arrays, which
// is what makes resident (but unencoded) secrets flip the hash and produce
// SpecDoctor's false positives.
func (c *Core) TimingHash(includeData bool) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	hashCache := func(ca *Cache) {
		words := ca.cfg.LineBytes / 8
		for i, tag := range ca.tags {
			if ca.valid[i] {
				w(1 + tag)
			} else {
				w(0)
			}
			if includeData {
				for _, d := range ca.data[i*words : (i+1)*words] {
					w(d)
				}
			}
		}
		if includeData {
			for _, d := range ca.lfbData {
				w(d)
			}
		}
	}
	hashCache(c.DCache)
	hashCache(c.ICache)
	for _, t := range []*TLB{c.ITLB, c.DTLB, c.L2TLB} {
		for i := range t.entries {
			if t.entries[i].valid {
				w(1 + t.entries[i].vpn)
			} else {
				w(0)
			}
		}
	}
	for _, cnt := range c.bht.counters {
		w(uint64(cnt))
	}
	for _, b := range []*BTB{c.btb, c.faubtb, c.ind} {
		for i := range b.entries {
			w(b.entries[i].tag<<1 | boolToU64(b.entries[i].valid))
			w(b.entries[i].target)
		}
	}
	for i := range c.ras.stack {
		w(c.ras.stack[i])
	}
	w(uint64(c.ras.tos))
	for i := range c.loop.entries {
		w(c.loop.entries[i].tag)
		w(uint64(c.loop.entries[i].streak))
	}
	return h.Sum64()
}
