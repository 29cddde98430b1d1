package uarch

// BHT is a table of 2-bit saturating counters indexed by PC.
type BHT struct{ bhtState }

// bhtState is everything a BHT holds that a core image saves.
type bhtState struct {
	counters []uint8
	taint    []uint64
	census   taintCount
}

func (s *bhtState) copyFrom(src *bhtState) {
	d := *s
	*s = *src
	s.counters = reuse(d.counters, src.counters)
	s.taint = reuse(d.taint, src.taint)
}

// NewBHT builds a branch history table initialised strongly-not-taken, so a
// taken prediction requires two consistent trainings.
func NewBHT(entries int) *BHT {
	return &BHT{bhtState{counters: make([]uint8, entries), taint: make([]uint64, entries)}}
}

func (b *BHT) index(pc uint64) int { return int(pc>>2) % len(b.counters) }

// Predict returns the predicted direction for the branch at pc.
func (b *BHT) Predict(pc uint64) bool { return b.counters[b.index(pc)] >= 2 }

// Update trains the counter with the resolved direction.
func (b *BHT) Update(pc uint64, taken bool, taint uint64) {
	i := b.index(pc)
	if taken {
		if b.counters[i] < 3 {
			b.counters[i]++
		}
	} else if b.counters[i] > 0 {
		b.counters[i]--
	}
	b.census.set(b.taint[i], b.taint[i]|taint)
	b.taint[i] |= taint
}

// Census reports the tainted counters and their tainted bits.
func (b *BHT) Census() (tainted, bitCount int) { return b.census.elems, b.census.bits }

// btbEntry maps a branch PC to its last-seen target.
type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	taint  uint64
	conf   int
}

// BTB is a direct-mapped branch target buffer. FauBTB uses the same shape
// with fewer entries (the zero-bubble first-level predictor); the indirect
// target predictor uses it with a confidence threshold: XiangShan-style
// target predictors only provide a prediction after repeated consistent
// trainings, which is why untargeted random training cannot trigger indirect
// jump mispredictions there (Table 3, DejaVuzz* row).
type BTB struct {
	Name    string
	minConf int
	btbState
}

// btbState is everything a BTB holds that a core image saves.
type btbState struct {
	entries []btbEntry
	census  taintCount
}

func (s *btbState) copyFrom(src *btbState) {
	entries := s.entries
	*s = *src
	s.entries = reuse(entries, src.entries)
}

// NewBTB builds a branch target buffer that predicts after one training.
func NewBTB(name string, entries int) *BTB { return NewBTBConf(name, entries, 1) }

// NewBTBConf builds a target buffer requiring minConf consistent trainings.
func NewBTBConf(name string, entries, minConf int) *BTB {
	if minConf < 1 {
		minConf = 1
	}
	return &BTB{Name: name, minConf: minConf, btbState: btbState{entries: make([]btbEntry, entries)}}
}

func (b *BTB) index(pc uint64) int { return int(pc>>2) % len(b.entries) }

// Predict returns the cached target for pc, if confident.
func (b *BTB) Predict(pc uint64) (target uint64, hit bool) {
	e := &b.entries[b.index(pc)]
	if e.valid && e.tag == pc && e.conf >= b.minConf {
		return e.target, true
	}
	return 0, false
}

// Update records a taken-control-flow target, tracking target stability.
func (b *BTB) Update(pc, target uint64, taint uint64) {
	e := &b.entries[b.index(pc)]
	if e.valid && e.tag == pc && e.target == target {
		e.conf++
	} else {
		e.conf = 1
	}
	e.valid = true
	e.tag = pc
	e.target = target
	if taint != 0 {
		b.census.set(e.taint, ^uint64(0))
		e.taint = ^uint64(0)
	}
}

// Census reports the tainted entries and their tainted bits.
func (b *BTB) Census() (tainted, bitCount int) { return b.census.elems, b.census.bits }

// RAS is the return address stack. Snapshotting granularity models the two
// recovery schemes the paper contrasts: full restore (XiangShan) versus
// BOOM's buggy TOS-and-top-entry-only restore (Phantom-RSB, B2).
type RAS struct{ rasState }

// rasState is everything a RAS holds that a core image saves.
type rasState struct {
	stack []uint64
	taint []uint64
	tos   int // index of next free slot; top entry is stack[tos-1]

	census taintCount

	// snap memoises the last Snapshot between mutations: the frontend
	// snapshots per fetched instruction but the stack only changes on
	// calls/returns, so most fetches share one immutable snapshot instead
	// of allocating a copy each. Being immutable, it is shared, not copied,
	// by images.
	snap      RASSnapshot
	snapValid bool
}

func (s *rasState) copyFrom(src *rasState) {
	d := *s
	*s = *src
	s.stack = reuse(d.stack, src.stack)
	s.taint = reuse(d.taint, src.taint)
}

// NewRAS builds a return address stack.
func NewRAS(entries int) *RAS {
	return &RAS{rasState{stack: make([]uint64, entries), taint: make([]uint64, entries)}}
}

func (r *RAS) wrap(i int) int {
	n := len(r.stack)
	return ((i % n) + n) % n
}

// Push records a call's return address.
func (r *RAS) Push(addr, taint uint64) {
	r.setSlot(r.wrap(r.tos), addr, taint)
	r.tos++
	r.snapValid = false
}

// Pop predicts a return target.
func (r *RAS) Pop() (addr, taint uint64) {
	r.tos--
	r.snapValid = false
	return r.stack[r.wrap(r.tos)], r.taint[r.wrap(r.tos)]
}

// Snapshot captures the full stack state.
type RASSnapshot struct {
	TOS   int
	Stack []uint64
	Taint []uint64
}

// Snapshot copies the current state. Consecutive snapshots with no
// intervening mutation share one immutable copy; holders must treat the
// snapshot's slices as read-only (every consumer restores FROM them).
func (r *RAS) Snapshot() RASSnapshot {
	if r.snapValid {
		return r.snap
	}
	s := RASSnapshot{TOS: r.tos, Stack: make([]uint64, len(r.stack)), Taint: make([]uint64, len(r.taint))}
	copy(s.Stack, r.stack)
	copy(s.Taint, r.taint)
	r.snap = s
	r.snapValid = true
	return s
}

// Restore recovers from a snapshot. With buggyTopOnly (BOOM), only the TOS
// pointer and the top entry are restored: transient overwrites of deeper
// entries survive — the Phantom-RSB leak.
func (r *RAS) Restore(s RASSnapshot, buggyTopOnly bool) {
	r.snapValid = false
	if buggyTopOnly {
		r.tos = s.TOS
		top := r.wrap(r.tos - 1)
		r.setSlot(top, s.Stack[top], s.Taint[top])
		return
	}
	r.tos = s.TOS
	for i := range r.stack {
		r.setSlot(i, s.Stack[i], s.Taint[i])
	}
}

// setSlot writes one stack slot, keeping the census exact.
func (r *RAS) setSlot(i int, addr, taint uint64) {
	r.census.set(r.taint[i], taint)
	r.stack[i] = addr
	r.taint[i] = taint
}

// Census reports the tainted slots and their tainted bits.
func (r *RAS) Census() (tainted, bitCount int) { return r.census.elems, r.census.bits }

// loopEntry tracks a loop branch's trip behaviour.
type loopEntry struct {
	valid   bool
	tag     uint64
	streak  int // consecutive taken count
	trained bool
	trip    int
	taint   uint64
}

// LoopPredictor predicts loop exits: after observing a stable trip count it
// predicts not-taken on the final iteration.
type LoopPredictor struct {
	tripMax int
	loopState
}

// loopState is everything a loop predictor holds that a core image saves.
type loopState struct {
	entries []loopEntry
	census  taintCount
}

func (s *loopState) copyFrom(src *loopState) {
	entries := s.entries
	*s = *src
	s.entries = reuse(entries, src.entries)
}

// NewLoopPredictor builds a loop predictor.
func NewLoopPredictor(entries, tripMax int) *LoopPredictor {
	return &LoopPredictor{tripMax: tripMax, loopState: loopState{entries: make([]loopEntry, entries)}}
}

func (l *LoopPredictor) index(pc uint64) int { return int(pc>>2) % len(l.entries) }

// Predict returns (override, taken): override is true when the predictor has
// confidence about this branch.
func (l *LoopPredictor) Predict(pc uint64) (override, taken bool) {
	e := &l.entries[l.index(pc)]
	if !e.valid || e.tag != pc || !e.trained {
		return false, false
	}
	// Predict taken until the trip count is reached.
	return true, e.streak < e.trip
}

// Update trains on a resolved direction.
func (l *LoopPredictor) Update(pc uint64, taken bool, taint uint64) {
	e := &l.entries[l.index(pc)]
	old := e.taint
	if !e.valid || e.tag != pc {
		*e = loopEntry{valid: true, tag: pc}
	}
	e.taint |= taint
	l.census.set(old, e.taint)
	if taken {
		e.streak++
		if e.streak > l.tripMax && !e.trained {
			// Long-running loop: train with the observed streak as the trip.
			e.trained = true
			e.trip = e.streak
		}
	} else {
		if e.streak > 0 && !e.trained {
			e.trained = true
			e.trip = e.streak
		}
		e.streak = 0
	}
}

// Census reports the tainted entries and their tainted bits.
func (l *LoopPredictor) Census() (tainted, bitCount int) { return l.census.elems, l.census.bits }
