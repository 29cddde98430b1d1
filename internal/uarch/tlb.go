package uarch

// tlbEntry caches one page translation. The model uses identity mapping, so
// the interesting state is *which* pages are cached (a timing channel) and
// the taint on the entry (a secret-indexed page walk).
type tlbEntry struct {
	valid bool
	vpn   uint64
	taint uint64
	lru   int
}

// TLB is one translation lookaside buffer level.
type TLB struct {
	Name string
	cfg  TLBConfig
	next *TLB // next level (L2); nil means page walk. A binding, not state.
	tlbState
}

// tlbState is everything a TLB holds that a core image saves.
type tlbState struct {
	entries []tlbEntry
	census  taintCount

	Accesses int
	Misses   int
}

// copyFrom makes s a copy of src, reusing s's entry array.
func (s *tlbState) copyFrom(src *tlbState) {
	entries := s.entries
	*s = *src
	s.entries = reuse(entries, src.entries)
}

// NewTLB builds a TLB; next may be nil for the last level.
func NewTLB(name string, cfg TLBConfig, next *TLB) *TLB {
	return &TLB{Name: name, cfg: cfg, next: next, tlbState: tlbState{entries: make([]tlbEntry, cfg.Entries)}}
}

func (t *TLB) vpn(addr uint64) uint64 { return addr >> t.cfg.PageBits }

// Lookup translates addr, returning the added latency. Fills persist across
// squashes (transient page walks are visible), making the TLB an encodable
// timing component.
func (t *TLB) Lookup(addr uint64) (lat int) {
	t.Accesses++
	vpn := t.vpn(addr)
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			t.touch(i)
			return t.cfg.HitLat
		}
	}
	t.Misses++
	lat = t.cfg.MissLat
	if t.next != nil {
		lat += t.next.Lookup(addr)
	}
	t.fill(vpn, 0)
	return t.cfg.HitLat + lat
}

func (t *TLB) touch(idx int) {
	for i := range t.entries {
		t.entries[i].lru++
	}
	t.entries[idx].lru = 0
}

func (t *TLB) fill(vpn, taint uint64) {
	victim := 0
	age := -1
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			age = 1 << 30
			break
		}
		if t.entries[i].lru > age {
			age = t.entries[i].lru
			victim = i
		}
	}
	t.census.set(t.entries[victim].taint, taint)
	t.entries[victim] = tlbEntry{valid: true, vpn: vpn, taint: taint}
	t.touch(victim)
}

// TaintPage marks the entry translating addr as secret-dependent (a fill
// selected by a tainted address).
func (t *TLB) TaintPage(addr uint64) {
	vpn := t.vpn(addr)
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].vpn == vpn {
			t.census.set(t.entries[i].taint, ^uint64(0))
			t.entries[i].taint = ^uint64(0)
		}
	}
	if t.next != nil {
		t.next.TaintPage(addr)
	}
}

// FlushAll invalidates all entries.
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
	t.census = taintCount{}
}

// Census reports the tainted entries and their tainted bits.
func (t *TLB) Census() (tainted, bitCount int) { return t.census.elems, t.census.bits }
