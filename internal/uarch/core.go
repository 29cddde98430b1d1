package uarch

import (
	"fmt"
	"math/bits"

	"dejavuzz/internal/ift"
	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
)

// IFTMode selects the taint-tracking discipline for a core instance.
type IFTMode int

const (
	IFTOff IFTMode = iota
	IFTCellIFT
	IFTDiff
)

func (m IFTMode) String() string {
	switch m {
	case IFTCellIFT:
		return "CellIFT"
	case IFTDiff:
		return "diffIFT"
	}
	return "off"
}

const (
	stDispatched = iota
	stExecuting
	stDone
)

type opSrc struct {
	fromROB bool
	robIdx  int
	seq     uint64
	reg     int
	fp      bool
}

type robEntry struct {
	valid  bool
	seq    uint64
	pc     uint64
	inst   isa.Inst
	state  int
	doneAt int

	src1, src2       opSrc
	hasSrc1, hasSrc2 bool

	val, taint uint64
	fpDest     bool

	exc     isasim.Cause
	excTval uint64

	// Control flow.
	isCtl      bool
	predTaken  bool
	predTarget uint64
	fromRAS    bool
	actTaken   bool
	actTarget  uint64
	targetT    uint64
	rasSnap    RASSnapshot

	// Memory.
	isLoad, isStore bool
	addr            uint64
	addrTaint       uint64
	addrKnown       bool
	memSpeculative  bool
	stData, stDataT uint64
	ldqIdx, stqIdx  int
}

type fetchEntry struct {
	pc         uint64
	inst       isa.Inst
	predTaken  bool
	predTarget uint64
	fromRAS    bool
	rasSnap    RASSnapshot
	fetchFault isasim.Cause
}

// ctlKind labels control-taint points for cross-instance matching.
type ctlKind uint8

const (
	ctlBranch ctlKind = iota
	ctlJumpTarget
	ctlMemAddr
	ctlStoreAddr
	ctlSquash
)

func ctlKey(kind ctlKind, pc uint64) uint64 {
	return uint64(kind)<<56 ^ pc*0x9e3779b97f4a7c15
}

// CtlEvent is a deferred control-taint application awaiting the
// cross-instance difference verdict (diffIFT's Sdiff signals).
type CtlEvent struct {
	Key   uint64
	Val   uint64
	Cycle int
	apply func(diff bool)
}

type notedVal struct {
	val   uint64
	cycle int
}

// queueEntry buffers a pending ldq/stq slot for the census.
type queueEntry struct {
	valid bool
	taint uint64
}

// Core is one DUT instance. Its fields are bindings (the address space, the
// trap hook), units (caches, TLBs, predictors, each holding its own state)
// and the pipeline state it embeds; an Image holds all of the state and none
// of the bindings.
type Core struct {
	Cfg   Config
	Mem   *mem.Space
	Mode  IFTMode
	Trace *Trace

	// TrapHook is invoked on any commit-time trap (exceptions and ecall).
	// The swap runtime uses it to schedule the next instruction packet.
	TrapHook func(isasim.Trap) isasim.TrapAction

	pipeState

	ICache *Cache
	DCache *Cache
	ITLB   *TLB
	DTLB   *TLB
	L2TLB  *TLB

	bht    *BHT
	btb    *BTB
	faubtb *BTB
	ind    *BTB // indirect (jalr) target predictor
	ras    *RAS
	loop   *LoopPredictor

	// Differential control-taint plumbing: events noted this cycle, resolved
	// against the peer before the next one (see ResolveCtl), so none are
	// pending at a cycle boundary.
	pendingCtl []CtlEvent

	// censusScratch is the reusable per-cycle census buffer (taint tracing).
	censusScratch []ModuleTaint
	// decode memoises the fetch stage's instruction decoding. It is not
	// state: it can never change a result, so images do not carry it.
	decode isa.DecodeMemo
	// pristine caches Cfg's construction-time image (see Reset), sparing
	// each Reset a shared-map lookup that hashes the whole Config.
	pristine *Image
}

// pipeState is the core's own simulation state: everything it holds apart
// from its units, its trace and its bindings.
type pipeState struct {
	Halted bool
	Cycle  int

	pc      uint64
	pcTaint uint64

	fetchQ          []fetchEntry
	fetchHead       int // consumed prefix of fetchQ (head-index ring; avoids re-slicing churn)
	fetchStallUntil int
	decodeBlocked   bool
	fetchHeld       bool // serialized at ecall/ebreak until redirect

	rob           []robEntry
	robHead       int
	robTail       int
	robCount      int
	seqNext       uint64
	trapPendingAt int

	archX  [32]uint64
	archXT [32]uint64
	archF  [32]uint64
	archFT [32]uint64

	ldq     []queueEntry
	stq     []queueEntry
	ldqFree int
	stqFree int

	// Census counters of the core-owned shadows (see census.go): RoB
	// entries, architectural registers and load/store-queue slots.
	robCensus, regCensus, lsuCensus taintCount

	divBusyUntil  int
	fdivBusyUntil int
	fpuLatchTaint uint64
	// wbPorts counts the load write-backs booked per cycle: slot k&(len-1)
	// holds cycle k for k in [Cycle, Cycle+len). Its length is a power of
	// two above every latency a load can book ahead (see bookLoadWB).
	wbPorts []int32

	// noted holds each control point's latest value for the peer's
	// cross-instance comparison.
	noted map[uint64]notedVal

	// B3 bookkeeping: most recent jalr misprediction resolution.
	jalrMispredCycle int
	jalrCorrTarget   uint64
	jalrCorrTaint    uint64

	// Statistics for oracles and experiments.
	Committed    uint64
	TrapCount    int
	TaintTraceOn bool
	// BugWitness counts mechanism-level evidence each time an injected
	// bug's code path actually fires (used to label findings in Table 5
	// runs), indexed by Witness.
	BugWitness [NumWitnesses]int
}

// copyFrom makes p a copy of src, reusing p's arrays and maps. Fetch-queue
// and RoB entries share their RAS snapshots, which are immutable.
func (p *pipeState) copyFrom(src *pipeState) {
	d := *p
	*p = *src
	p.fetchQ = reuse(d.fetchQ, src.fetchQ)
	p.rob = reuse(d.rob, src.rob)
	p.ldq = reuse(d.ldq, src.ldq)
	p.stq = reuse(d.stq, src.stq)
	p.wbPorts = reuse(d.wbPorts, src.wbPorts)
	p.noted = reuseMap(d.noted, src.noted)
}

// NewCore builds a core over its (per-instance) address space. It is
// implemented as an empty shell plus Reset, so Reset is equivalent to fresh
// construction by definition — the property the execution-context reuse in
// internal/core relies on.
func NewCore(cfg Config, space *mem.Space, mode IFTMode) *Core {
	c := &Core{}
	c.Reset(cfg, space, mode)
	return c
}

// Reset reinitialises the core in place for a new simulation: it binds the
// space, drops the trap hook and restores cfg's pristine image, so every
// microarchitectural structure (RoB, load/store queues, caches, TLBs,
// predictors, shadow taint state, trace) returns to its construction-time
// state, reusing existing allocations. After Reset the core is
// indistinguishable from NewCore(cfg, space, mode).
func (c *Core) Reset(cfg Config, space *mem.Space, mode IFTMode) {
	if c.pristine == nil || c.pristine.cfg != cfg {
		c.pristine = pristineImage(cfg)
	}
	c.Mem = space
	c.TrapHook = nil
	c.Restore(c.pristine)
	c.Mode = mode
}

// Restart jumps the core to an entry point, clearing pipeline state but
// preserving microarchitectural (cache/predictor) state — matching a swap.
func (c *Core) Restart(entry uint64) {
	c.pc = entry
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0
	c.decodeBlocked = false
	for i := range c.rob {
		c.rob[i].valid = false
	}
	c.robHead, c.robTail, c.robCount = 0, 0, 0
	for i := range c.ldq {
		c.ldq[i] = queueEntry{}
	}
	for i := range c.stq {
		c.stq[i] = queueEntry{}
	}
	c.ldqFree = c.Cfg.LDQEntries
	c.stqFree = c.Cfg.STQEntries
	c.lsuCensus = taintCount{}
	c.trapPendingAt = -1
	c.fetchHeld = false
	c.Halted = false
}

// PC returns the current fetch pc.
func (c *Core) PC() uint64 { return c.pc }

// ctl notes a control-point value and, if tainted, schedules control-taint
// application. CellIFT applies immediately; diffIFT defers until the
// cross-instance comparison resolves.
func (c *Core) ctl(kind ctlKind, pc, val uint64, tainted bool, apply func(diff bool)) {
	if c.Mode == IFTOff {
		return
	}
	key := ctlKey(kind, pc)
	c.noted[key] = notedVal{val: val, cycle: c.Cycle}
	if !tainted {
		return
	}
	if c.Mode == IFTCellIFT {
		apply(true)
		return
	}
	c.pendingCtl = append(c.pendingCtl, CtlEvent{Key: key, Val: val, Cycle: c.Cycle, apply: apply})
}

// ResolveCtl matches this core's pending control events against the peer's
// noted values. Missing keys resolve as "differs" — a path only one instance
// took is by construction secret-dependent.
func (c *Core) ResolveCtl(peer *Core) {
	const window = 8
	for _, ev := range c.pendingCtl {
		diff := true
		if nv, ok := peer.noted[ev.Key]; ok && ev.Cycle-nv.cycle <= window && nv.cycle-ev.Cycle <= window {
			diff = nv.val != ev.Val
		}
		ev.apply(diff)
	}
	c.pendingCtl = c.pendingCtl[:0]
}

// Step advances one cycle. In IFTDiff mode the caller must ResolveCtl after
// stepping both instances of the pair.
func (c *Core) Step() {
	if c.Halted {
		return
	}
	c.commitStage()
	if c.Halted {
		c.afterCycle()
		return
	}
	c.writebackStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.afterCycle()
}

func (c *Core) afterCycle() {
	if c.TaintTraceOn {
		c.censusScratch = c.CensusInto(c.censusScratch[:0])
		sum := 0
		for _, m := range c.censusScratch {
			sum += m.Bits
			// Zero-taint samples are no-ops for every consumer (the coverage
			// matrix keys on tainted-element counts > 0), so only tainted
			// modules are logged — the log stays proportional to observed
			// taint, not to cycles × module count.
			if m.Tainted > 0 {
				// Filled in place, as dispatch fills its RoB entry.
				c.Trace.TaintLog = append(c.Trace.TaintLog, TaintSample{})
				s := &c.Trace.TaintLog[len(c.Trace.TaintLog)-1]
				s.Cycle, s.Module, s.Tainted, s.Bits = c.Cycle, m.Module, m.Tainted, m.Bits
			}
		}
		c.Trace.TaintSumByCycle = append(c.Trace.TaintSumByCycle, sum)
	}
	// No load can book this cycle any more: free its slot for Cycle+len.
	c.wbPorts[c.Cycle&(len(c.wbPorts)-1)] = 0
	c.Cycle++
}

// --- commit ---------------------------------------------------------------

func (c *Core) commitStage() {
	// A recognised trap drains for TrapLatency cycles before the flush;
	// younger instructions keep executing transiently meanwhile.
	if c.trapPendingAt >= 0 {
		if c.Cycle < c.trapPendingAt {
			return
		}
		c.trapPendingAt = -1
		e := &c.rob[c.robHead]
		if e.exc != isasim.CauseNone {
			c.commitException(e)
			return
		}
		switch e.inst.Op {
		case isa.OpEcall:
			c.Trace.commit(e.seq, c.Cycle, isasim.CauseEnvCall)
			c.raiseTrap(isasim.Trap{Cause: isasim.CauseEnvCall, EPC: e.pc})
		case isa.OpEbreak:
			c.Trace.commit(e.seq, c.Cycle, isasim.CauseBreakpoint)
			c.raiseTrap(isasim.Trap{Cause: isasim.CauseBreakpoint, EPC: e.pc})
		}
		return
	}
	for n := 0; n < c.Cfg.CommitWidth && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if !e.valid || e.state != stDone || e.doneAt > c.Cycle {
			return
		}
		if e.exc != isasim.CauseNone || e.inst.Op == isa.OpEcall || e.inst.Op == isa.OpEbreak {
			c.trapPendingAt = c.Cycle + c.Cfg.TrapLatency
			return
		}
		c.commitEntry(e)
		if c.Halted {
			return
		}
	}
}

func (c *Core) retireHead() {
	e := &c.rob[c.robHead]
	if e.isLoad && e.ldqIdx >= 0 {
		c.freeLDQ(e.ldqIdx)
	}
	if e.isStore && e.stqIdx >= 0 {
		c.freeSTQ(e.stqIdx)
	}
	e.valid = false
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.robCount--
}

func (c *Core) commitEntry(e *robEntry) {
	c.Trace.commit(e.seq, c.Cycle, isasim.CauseNone)
	c.Committed++
	in := e.inst
	switch in.Op.Class() {
	case isa.ClassStore:
		// Perform the store: through the dcache, write-through to memory.
		c.DCache.Access(e.addr, c.Cycle)
		c.storeCommit(e)
	case isa.ClassBranch:
		c.bht.Update(e.pc, e.actTaken, e.taint)
		c.loop.Update(e.pc, e.actTaken, e.taint)
		if e.actTaken {
			c.btb.Update(e.pc, e.actTarget, e.targetT)
			c.faubtb.Update(e.pc, e.actTarget, e.targetT)
		}
	case isa.ClassJump:
		c.btb.Update(e.pc, e.actTarget, e.targetT)
		c.faubtb.Update(e.pc, e.actTarget, e.targetT)
		if in.Rd != 0 {
			c.writeArch(in.Rd, false, e.val, e.taint)
		}
	case isa.ClassJumpReg:
		if !e.fromRAS {
			c.ind.Update(e.pc, e.actTarget, e.targetT)
		}
		if in.Rd != 0 {
			c.writeArch(in.Rd, false, e.val, e.taint)
		}
	case isa.ClassSystem:
		// ecall and ebreak never get here: commitStage drains them as traps.
		switch in.Op {
		case isa.OpCsrrw, isa.OpCsrrs, isa.OpCsrrc:
			if in.Rd != 0 {
				c.writeArch(in.Rd, false, e.val, e.taint)
			}
		}
	default:
		if in.Rd != 0 || e.fpDest {
			c.writeArch(in.Rd, e.fpDest, e.val, e.taint)
		}
	}
	c.retireHead()
}

func (c *Core) storeCommit(e *robEntry) {
	size := e.inst.Op.MemSize()
	v, t := e.stData, e.stDataT
	old, oldT := c.DCache.Read64(e.addr &^ 7)
	sh := uint((e.addr & 7) * 8)
	var m uint64
	if size >= 8 {
		m = ^uint64(0)
	} else {
		m = (uint64(1)<<(uint(size)*8) - 1) << sh
	}
	nv := old&^m | (v<<sh)&m
	nt := oldT&^m | (t<<sh)&m
	c.DCache.Write64(e.addr&^7, nv, nt)
	if e.addrTaint != 0 {
		c.ctl(ctlStoreAddr, e.pc, e.addr, true, func(diff bool) {
			if diff {
				res := c.DCache.Access(e.addr, c.Cycle)
				c.DCache.TaintTag(res.Set, res.Way)
				c.DTLB.TaintPage(e.addr)
			}
		})
	}
}

func (c *Core) commitException(e *robEntry) {
	c.Trace.commit(e.seq, c.Cycle, e.exc)
	trap := isasim.Trap{Cause: e.exc, EPC: e.pc, Tval: e.excTval}

	// B3 Phantom-BTB: an indirect-jump misprediction resolving while this
	// exception commits (the same redirect-arbitration window) misattributes
	// the BTB correction to the excepting PC.
	if c.Cfg.Bugs.PhantomBTB && c.jalrMispredCycle > 0 && c.Cycle-c.jalrMispredCycle <= 2 {
		c.btb.Update(e.pc, c.jalrCorrTarget, c.jalrCorrTaint)
		c.btb.Update(e.pc, c.jalrCorrTarget, c.jalrCorrTaint) // force confidence
		c.faubtb.Update(e.pc, c.jalrCorrTarget, c.jalrCorrTaint)
		c.BugWitness[WitnessPhantomBTB]++
	}
	c.raiseTrap(trap)
}

// raiseTrap squashes everything younger than the trapping instruction and
// consults the trap hook for the redirect (the swap runtime's entry point).
func (c *Core) raiseTrap(t isasim.Trap) {
	e := &c.rob[c.robHead]
	snap := e.rasSnap
	c.squashYounger(e.seq, SquashException, 0, t.EPC, snap)
	c.retireHead()
	c.TrapCount++
	if c.TrapHook == nil {
		c.Halted = true
		return
	}
	act := c.TrapHook(t)
	if act.Halt {
		c.Halted = true
		return
	}
	c.pc = act.NewPC
	c.decodeBlocked = false
	c.fetchHeld = false
	c.pcTaint = 0
}

// --- writeback / branch resolution -----------------------------------------

func (c *Core) writebackStage() {
	// Resolve control flow in program order (oldest first) so the oldest
	// misprediction wins the squash.
	idx := c.robHead
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[idx]
		idx = (idx + 1) % len(c.rob)
		if !e.valid || e.state != stExecuting || e.doneAt > c.Cycle {
			continue
		}
		e.state = stDone
		if e.isCtl {
			if c.resolveControl(e) {
				return // squash performed; younger state is gone
			}
		}
		if e.isStore && e.addrKnown {
			if c.checkMemOrdering(e) {
				return
			}
		}
	}
}

func (c *Core) resolveControl(e *robEntry) (squashed bool) {
	in := e.inst
	mispred := false
	var emitCtl func()
	switch in.Op.Class() {
	case isa.ClassBranch:
		condTainted := e.taint != 0
		actTaken := e.actTaken
		pc := e.pc
		emitCtl = func() {
			c.ctl(ctlBranch, pc, boolToU64(actTaken), condTainted, func(diff bool) {
				if !diff {
					return
				}
				c.bht.Update(pc, actTaken, ^uint64(0))
				c.loop.Update(pc, actTaken, ^uint64(0))
				c.pcTaint = ^uint64(0) // secret-selected fetch path
				c.sprayROBTaint()
			})
		}
		mispred = e.actTaken != e.predTaken || (e.actTaken && e.actTarget != e.predTarget)
	case isa.ClassJump:
		mispred = e.actTarget != e.predTarget
	case isa.ClassJumpReg:
		tgtTainted := e.targetT != 0
		actTarget := e.actTarget
		pc := e.pc
		emitCtl = func() {
			c.ctl(ctlJumpTarget, pc, actTarget, tgtTainted, func(diff bool) {
				if !diff {
					return
				}
				if c.Cfg.TransientPredictorUpdate {
					c.ind.Update(pc, actTarget, ^uint64(0))
				}
				c.pcTaint = ^uint64(0) // secret-selected fetch target
				c.sprayROBTaint()
			})
		}
		mispred = e.actTarget != e.predTarget
	default:
		return false
	}

	// Transient (pre-commit) predictor updates, where the core allows them.
	if c.Cfg.TransientPredictorUpdate && in.Op.Class() == isa.ClassJumpReg && !e.fromRAS && mispred {
		c.ind.Update(e.pc, e.actTarget, e.targetT)
	}

	if !mispred {
		if emitCtl != nil {
			emitCtl()
		}
		return false
	}
	reason := SquashBranchMispredict
	if in.Op.Class() == isa.ClassJumpReg {
		if e.fromRAS {
			reason = SquashReturnMispredict
		} else {
			reason = SquashJumpMispredict
		}
		c.jalrMispredCycle = c.Cycle
		c.jalrCorrTarget = e.actTarget
		c.jalrCorrTaint = e.targetT
	}
	redirect := e.actTarget
	if in.Op.Class() == isa.ClassBranch && !e.actTaken {
		redirect = e.pc + 4
	}
	c.squashYoungerPred(e.seq, reason, redirect, e.pc, e.rasSnap, e.predTaken)
	if emitCtl != nil {
		emitCtl() // after the squash so the redirect's pc taint sticks
	}
	return true
}

// checkMemOrdering detects younger loads that speculatively executed with an
// overlapping address before this store's address was known.
func (c *Core) checkMemOrdering(st *robEntry) (squashed bool) {
	idx := c.robHead
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[idx]
		idx = (idx + 1) % len(c.rob)
		if !e.valid || e.seq <= st.seq || !e.isLoad {
			continue
		}
		if e.state == stDispatched || !e.addrKnown {
			continue
		}
		if !e.memSpeculative {
			continue
		}
		if overlaps(e.addr, e.inst.Op.MemSize(), st.addr, st.inst.Op.MemSize()) {
			// Ordering violation: replay from the load.
			c.squashFrom(e.seq, SquashMemOrdering, e.pc, st.pc, st.rasSnap)
			return true
		}
	}
	return false
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// sprayROBTaint models the CellIFT rollback explosion (the paper's Figure 2):
// a secret-dependent rollback taints every RoB entry field and the frontend.
func (c *Core) sprayROBTaint() {
	for i := range c.rob {
		e := &c.rob[i]
		c.setROBShadow(e, &e.taint, ^uint64(0))
		c.setROBShadow(e, &e.addrTaint, ^uint64(0))
	}
	c.pcTaint = ^uint64(0)
	for i := range c.ldq {
		c.setQueueTaint(&c.ldq[i], ^uint64(0))
	}
	for i := range c.stq {
		c.setQueueTaint(&c.stq[i], ^uint64(0))
	}
}

// shadowBits is the entry's tainted-bit count: its data, address and
// store-data shadows together form one rob census element.
func (e *robEntry) shadowBits() int {
	return bits.OnesCount64(e.taint) + bits.OnesCount64(e.addrTaint) + bits.OnesCount64(e.stDataT)
}

// setROBShadow stores t into one of e's census-counted shadows (taint,
// addrTaint or stDataT), keeping the rob census exact.
func (c *Core) setROBShadow(e *robEntry, shadow *uint64, t uint64) {
	if *shadow == t {
		return
	}
	before := e.shadowBits()
	*shadow = t
	c.robCensus.move(before, e.shadowBits())
}

// setQueueTaint stores a load/store-queue slot's taint, keeping the lsu
// census exact.
func (c *Core) setQueueTaint(q *queueEntry, t uint64) {
	c.lsuCensus.set(q.taint, t)
	q.taint = t
}

// squashYounger flushes all entries strictly younger than keepSeq.
func (c *Core) squashYounger(keepSeq uint64, reason SquashReason, redirect, atPC uint64, snap RASSnapshot) {
	c.doSquash(func(seq uint64) bool { return seq > keepSeq }, reason, redirect, atPC, snap, false)
}

// squashYoungerPred is squashYounger for predictor-driven mispredictions.
func (c *Core) squashYoungerPred(keepSeq uint64, reason SquashReason, redirect, atPC uint64, snap RASSnapshot, predDriven bool) {
	c.doSquash(func(seq uint64) bool { return seq > keepSeq }, reason, redirect, atPC, snap, predDriven)
}

// squashFrom flushes fromSeq and everything younger (memory-ordering replay).
func (c *Core) squashFrom(fromSeq uint64, reason SquashReason, redirect, atPC uint64, snap RASSnapshot) {
	c.doSquash(func(seq uint64) bool { return seq >= fromSeq }, reason, redirect, atPC, snap, false)
}

func (c *Core) doSquash(drop func(uint64) bool, reason SquashReason, redirect, atPC uint64, snap RASSnapshot, predDriven bool) {
	anyTainted := false
	oldest := ^uint64(0)
	n := 0
	idx := c.robHead
	for i := 0; i < c.robCount; i++ {
		e := &c.rob[idx]
		idx = (idx + 1) % len(c.rob)
		if !e.valid || !drop(e.seq) {
			continue
		}
		if e.taint != 0 || e.addrTaint != 0 || e.stDataT != 0 {
			anyTainted = true
		}
		if e.seq < oldest {
			oldest = e.seq
		}
		c.Trace.squash(e.seq, c.Cycle)
		if e.isLoad && e.ldqIdx >= 0 {
			c.freeLDQ(e.ldqIdx)
		}
		if e.isStore && e.stqIdx >= 0 {
			c.freeSTQ(e.stqIdx)
		}
		e.valid = false
		n++
	}
	c.fetchHeld = false
	c.pcTaint = 0 // redirects reset the pc shadow; tainted ctl re-arms it
	// Shrink the tail over the invalidated suffix.
	for c.robCount > 0 {
		prev := (c.robTail - 1 + len(c.rob)) % len(c.rob)
		if c.rob[prev].valid {
			break
		}
		c.robTail = prev
		c.robCount--
		if c.robCount == 0 {
			break
		}
	}
	// Recount (entries in the middle cannot be invalid: squash is a suffix).
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0
	if reason != SquashException {
		c.pc = redirect
	}
	c.decodeBlocked = false
	c.Trace.Squashes = append(c.Trace.Squashes, SquashEvent{
		Cycle: c.Cycle, Reason: reason, FromSeq: oldest, AtPC: atPC, Redirect: redirect,
		PredTaken: predDriven,
	})

	// RAS recovery: full restore, or BOOM's buggy top-only restore (B2).
	if len(snap.Stack) > 0 {
		buggy := c.Cfg.Bugs.PhantomRSB
		if buggy {
			// Witness only when a transient write below TOS survives.
			before := c.ras.Snapshot()
			c.ras.Restore(snap, true)
			for i := range before.Stack {
				if i != c.ras.wrap(snap.TOS-1) && before.Stack[i] != snap.Stack[i] && c.ras.stack[i] == before.Stack[i] {
					c.BugWitness[WitnessPhantomRSB]++
					break
				}
			}
		} else {
			c.ras.Restore(snap, false)
		}
	}

	// The rollback itself is a control point: if squashed state was tainted,
	// CellIFT sprays the RoB (taint explosion); diffIFT sprays only when the
	// rollback differs across instances.
	if anyTainted && n > 0 {
		val := redirect<<8 | uint64(n&0xff)
		c.ctl(ctlSquash, atPC, val, true, func(diff bool) {
			if diff {
				c.sprayROBTaint()
			}
		})
	}
}

// --- issue / execute --------------------------------------------------------

func (c *Core) readOperand(src opSrc) (v, t uint64, ready bool) {
	if src.fromROB {
		p := &c.rob[src.robIdx]
		if p.valid && p.seq == src.seq {
			if p.state == stDone && p.doneAt <= c.Cycle {
				return p.val, p.taint, true
			}
			return 0, 0, false
		}
		// Producer retired: value is architectural now.
	}
	if src.fp {
		return c.archF[src.reg], c.archFT[src.reg], true
	}
	return c.archX[src.reg], c.archXT[src.reg], true
}

func (c *Core) issueStage() {
	aluFree := c.Cfg.ALUs
	loadFree := c.Cfg.LoadPorts
	storeFree := 1
	fpuFree := c.Cfg.FPUs

	idx := c.robHead
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[idx]
		idx = (idx + 1) % len(c.rob)
		if !e.valid || e.state != stDispatched {
			continue
		}
		var v1, t1, v2, t2 uint64
		ready := true
		if e.hasSrc1 {
			var ok bool
			v1, t1, ok = c.readOperand(e.src1)
			ready = ready && ok
		}
		if e.hasSrc2 {
			var ok bool
			v2, t2, ok = c.readOperand(e.src2)
			ready = ready && ok
		}
		if !ready {
			continue
		}
		switch e.inst.Op.Class() {
		case isa.ClassLoad:
			if loadFree <= 0 {
				continue
			}
			loadFree--
			c.executeLoad(e, v1, t1)
		case isa.ClassStore:
			if storeFree <= 0 {
				continue
			}
			storeFree--
			c.executeStore(e, v1, t1, v2, t2)
		case isa.ClassFPU:
			if fpuFree <= 0 {
				continue
			}
			fpuFree--
			c.executeSimple(e, v1, t1, v2, t2, c.Cfg.FPULat)
		case isa.ClassFDiv:
			if c.fdivBusyUntil > c.Cycle {
				continue
			}
			c.fdivBusyUntil = c.Cycle + c.Cfg.FDivLat
			c.fpuLatchTaint = t1 | t2
			c.executeSimple(e, v1, t1, v2, t2, c.Cfg.FDivLat)
		case isa.ClassDiv:
			if c.divBusyUntil > c.Cycle {
				continue
			}
			c.divBusyUntil = c.Cycle + c.Cfg.DivLat
			c.executeSimple(e, v1, t1, v2, t2, c.Cfg.DivLat)
		case isa.ClassMul:
			if aluFree <= 0 {
				continue
			}
			aluFree--
			c.executeSimple(e, v1, t1, v2, t2, c.Cfg.MulLat)
		default:
			if aluFree <= 0 {
				continue
			}
			aluFree--
			c.executeSimple(e, v1, t1, v2, t2, 1)
		}
	}
}

// executeSimple computes ALU/branch/jump/FP results with data-taint rules.
func (c *Core) executeSimple(e *robEntry, v1, t1, v2, t2 uint64, lat int) {
	in := e.inst
	e.state = stExecuting
	e.doneAt = c.Cycle + lat

	// Architectural result: the golden model's semantics.
	val, next := isasim.Compute(in, e.pc, v1, v2)

	var taint uint64
	switch in.Op.Class() {
	case isa.ClassBranch:
		e.actTaken = next != e.pc+4
		e.actTarget = e.pc + uint64(in.Imm)
		taint = cmpTaint(t1, t2)
		e.targetT = 0
	case isa.ClassJump:
		e.actTaken = true
		e.actTarget = next
		e.val = val
	case isa.ClassJumpReg:
		e.actTaken = true
		e.actTarget = next
		e.targetT = addTaint(t1, 0)
		e.val = val
	default:
		if e.fpDest || in.Rd != 0 {
			e.val = val
		} else {
			e.val = 0
		}
		taint = dataTaint(in, v1, v2, t1, t2)
	}
	c.setROBShadow(e, &e.taint, taint)
}

// executeLoad models address generation, translation, permission checks,
// cache access, store-to-load forwarding, and the transient-forwarding and
// MeltdownSampling (B1) bug mechanisms.
func (c *Core) executeLoad(e *robEntry, v1, t1 uint64) {
	in := e.inst
	e.state = stExecuting
	addr := v1 + uint64(in.Imm)
	e.addr = addr
	c.setROBShadow(e, &e.addrTaint, addTaint(t1, 0))
	e.addrKnown = true
	if e.ldqIdx >= 0 {
		c.setQueueTaint(&c.ldq[e.ldqIdx], e.addrTaint)
	}
	size := in.Op.MemSize()
	lat := 1

	// Misalignment.
	if addr%uint64(size) != 0 {
		e.exc = isasim.CauseLoadMisalign
		e.excTval = addr
		e.doneAt = c.Cycle + lat
		return
	}

	// Effective data-path address: B1 truncates the wire on the
	// pipeline->load-unit path.
	dataAddr := addr
	if c.Cfg.Bugs.MeltdownSampling {
		trunc := addr & (uint64(1)<<c.Cfg.PhysAddrBits - 1)
		if trunc != addr {
			dataAddr = trunc
			c.BugWitness[WitnessMeltdownSampling]++
		}
	}

	// Permission check on the architectural address.
	if err := c.Mem.Check(addr, size, mem.AccessLoad); err != nil {
		f := err.(*mem.Fault)
		e.exc = isasim.CauseForFault(f)
		e.excTval = addr
		// Transient data forwarding: the Meltdown root cause. Data is
		// forwarded from the cache if the (possibly truncated) address maps
		// to real memory.
		if c.Cfg.TransientLoadForward && c.Mem.Region(dataAddr) != nil {
			lat += c.DTLB.Lookup(dataAddr)
			res := c.DCache.Access(dataAddr, c.Cycle)
			lat += res.Latency
			v, t := c.readMemData(dataAddr, size, in)
			e.val = v
			c.setROBShadow(e, &e.taint, t)
			c.applyAddrCtl(e, dataAddr, res)
		} else {
			e.val = 0
			c.setROBShadow(e, &e.taint, 0)
		}
		e.doneAt = c.Cycle + lat
		c.chargeLoadWB(e)
		return
	}

	// Store-to-load forwarding and memory-disambiguation speculation.
	if fwd, fv, ft, unknown := c.forwardFromStores(e, dataAddr, size); fwd {
		e.val = fv
		c.setROBShadow(e, &e.taint, ft)
		// A younger unknown store between the match and the load keeps the
		// load speculative with respect to memory ordering.
		e.memSpeculative = unknown
		e.doneAt = c.Cycle + 1
		c.chargeLoadWB(e)
		return
	} else if unknown {
		// An older store's address is unresolved: speculate no-alias.
		e.memSpeculative = true
	}

	lat += c.DTLB.Lookup(dataAddr)
	res := c.DCache.Access(dataAddr, c.Cycle)
	lat += res.Latency
	v, t := c.readMemData(dataAddr, size, in)
	e.val = v
	c.setROBShadow(e, &e.taint, t)
	c.applyAddrCtl(e, dataAddr, res)
	e.doneAt = c.Cycle + lat
	c.chargeLoadWB(e)
}

// chargeLoadWB models load write-back port contention (B5): with a single
// port, simultaneous load completions serialise.
func (c *Core) chargeLoadWB(e *robEntry) {
	ports := int32(c.Cfg.LoadWBPorts)
	if ports <= 0 {
		ports = 1
	}
	for *c.bookLoadWB(e.doneAt) >= ports {
		e.doneAt++
		if c.Cfg.Bugs.SpectreReload {
			c.BugWitness[WitnessSpectreReload]++
		}
	}
	*c.bookLoadWB(e.doneAt)++
}

// bookLoadWB returns the write-back count of a future cycle. The ring
// starts longer than any latency a load can book ahead unless MSHR stalls
// chain (wbRingLen); a chain that books further ahead doubles it, so no two
// live cycles ever share a slot.
func (c *Core) bookLoadWB(cycle int) *int32 {
	for cycle-c.Cycle >= len(c.wbPorts) {
		grown := make([]int32, 2*len(c.wbPorts))
		for k := c.Cycle; k < c.Cycle+len(c.wbPorts); k++ {
			grown[k&(len(grown)-1)] = c.wbPorts[k&(len(c.wbPorts)-1)]
		}
		c.wbPorts = grown
	}
	return &c.wbPorts[cycle&(len(c.wbPorts)-1)]
}

// readMemData reads through the dcache; isasim.Extend gives the loaded
// value its sign or zero extension.
func (c *Core) readMemData(addr uint64, size int, in isa.Inst) (uint64, uint64) {
	v64, t64 := c.DCache.Read64(addr &^ 7)
	sh := uint((addr & 7) * 8)
	v := v64 >> sh
	t := t64 >> sh
	switch size {
	case 1:
		v &= 0xff
		t &= 0xff
	case 2:
		v &= 0xffff
		t &= 0xffff
	case 4:
		v &= 0xffffffff
		t &= 0xffffffff
	}
	return isasim.Extend(in.Op, v), t
}

// applyAddrCtl handles the memory-read control taint (Table 1): a tainted
// address makes the cache fill, the TLB fill and the loaded data
// secret-dependent. diffIFT applies it only if the addresses differ.
func (c *Core) applyAddrCtl(e *robEntry, dataAddr uint64, res AccessResult) {
	if e.addrTaint == 0 {
		return
	}
	eRef := e
	seq := e.seq
	c.ctl(ctlMemAddr, e.pc, dataAddr, true, func(diff bool) {
		if !diff {
			return
		}
		c.DCache.TaintTag(res.Set, res.Way)
		c.DTLB.TaintPage(dataAddr)
		if eRef.valid && eRef.seq == seq {
			c.setROBShadow(eRef, &eRef.taint, ^uint64(0))
		}
	})
}

// forwardFromStores searches older stores for a forwarding match.
// Returns unknown=true if an older store has an unresolved address.
func (c *Core) forwardFromStores(ld *robEntry, addr uint64, size int) (fwd bool, v, t uint64, unknown bool) {
	// Walk older entries youngest-first.
	idx := (c.robTail - 1 + len(c.rob)) % len(c.rob)
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[idx]
		idx = (idx - 1 + len(c.rob)) % len(c.rob)
		if !e.valid || e.seq >= ld.seq || !e.isStore {
			continue
		}
		if !e.addrKnown {
			unknown = true
			continue
		}
		if e.addr == addr && e.inst.Op.MemSize() >= size {
			return true, e.stData, e.stDataT, unknown
		}
		if overlaps(e.addr, e.inst.Op.MemSize(), addr, size) {
			// Partial overlap: treat as unforwardable; stall until commit by
			// speculating through memory (keeps the model simple).
			unknown = true
		}
	}
	return false, 0, 0, unknown
}

func (c *Core) executeStore(e *robEntry, v1, t1, v2, t2 uint64) {
	in := e.inst
	e.state = stExecuting
	addr := v1 + uint64(in.Imm)
	e.addr = addr
	c.setROBShadow(e, &e.addrTaint, addTaint(t1, 0))
	e.addrKnown = true
	e.stData = v2
	c.setROBShadow(e, &e.stDataT, t2)
	if e.stqIdx >= 0 {
		c.setQueueTaint(&c.stq[e.stqIdx], e.addrTaint|t2)
	}
	size := in.Op.MemSize()
	e.doneAt = c.Cycle + 1
	if c.Mem.Region(addr) != nil {
		e.doneAt += c.DTLB.Lookup(addr) // stores translate too
	}
	if addr%uint64(size) != 0 {
		e.exc = isasim.CauseStoreMisalign
		e.excTval = addr
		return
	}
	if err := c.Mem.Check(addr, size, mem.AccessStore); err != nil {
		f := err.(*mem.Fault)
		e.exc = isasim.CauseForFault(f)
		e.excTval = addr
		return
	}
}

// --- dispatch ---------------------------------------------------------------

func (c *Core) srcFor(reg int, fp bool) (opSrc, bool) {
	if reg == 0 && !fp {
		return opSrc{reg: 0}, true
	}
	// Youngest older producer.
	idx := (c.robTail - 1 + len(c.rob)) % len(c.rob)
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[idx]
		i := idx
		idx = (idx - 1 + len(c.rob)) % len(c.rob)
		if !e.valid {
			continue
		}
		writes := e.inst.Rd == reg && e.fpDest == fp
		switch e.inst.Op.Class() {
		case isa.ClassStore, isa.ClassBranch:
			writes = false
		case isa.ClassSystem:
			writes = e.inst.Rd == reg && !fp &&
				(e.inst.Op == isa.OpCsrrw || e.inst.Op == isa.OpCsrrs || e.inst.Op == isa.OpCsrrc)
		}
		if writes && e.inst.Rd != 0 || (writes && fp) {
			return opSrc{fromROB: true, robIdx: i, seq: e.seq, reg: reg, fp: fp}, true
		}
	}
	return opSrc{reg: reg, fp: fp}, true
}

func (c *Core) dispatchStage() {
	for n := 0; n < c.Cfg.DecodeWidth; n++ {
		if c.fetchHead >= len(c.fetchQ) || c.robCount >= len(c.rob) || c.decodeBlocked {
			return
		}
		fe := &c.fetchQ[c.fetchHead]
		in := fe.inst

		isLoad := in.Op.Class() == isa.ClassLoad
		isStore := in.Op.Class() == isa.ClassStore
		if isLoad && c.ldqFree == 0 {
			return
		}
		if isStore && c.stqFree == 0 {
			return
		}
		c.fetchHead++

		// Resolve source operands BEFORE inserting the entry so an
		// instruction never depends on itself.
		var src1, src2 opSrc
		hasSrc1, hasSrc2 := in.Sources()
		fp1, fp2 := in.FPSources()
		if hasSrc1 {
			src1, _ = c.srcFor(in.Rs1, fp1)
		}
		if hasSrc2 {
			src2, _ = c.srcFor(in.Rs2, fp2)
		}

		e := &c.rob[c.robTail]
		inherit := uint64(0)
		if c.Mode == IFTCellIFT {
			// CellIFT taint registers are never cleared by entry reuse: the
			// stale control taint folds into the new contents (Policy 2).
			inherit = e.taint | e.addrTaint
		}
		c.robCensus.move(e.shadowBits(), bits.OnesCount64(inherit))
		// Filled in place: a composite literal would be built aside and
		// copied over the entry.
		*e = robEntry{}
		e.valid, e.seq, e.pc, e.inst = true, c.seqNext, fe.pc, in
		e.state, e.ldqIdx, e.stqIdx = stDispatched, -1, -1
		e.predTaken, e.predTarget = fe.predTaken, fe.predTarget
		e.fromRAS, e.rasSnap = fe.fromRAS, fe.rasSnap
		e.isLoad, e.isStore, e.fpDest = isLoad, isStore, in.FPDest()
		e.src1, e.src2, e.hasSrc1, e.hasSrc2 = src1, src2, hasSrc1, hasSrc2
		e.taint = inherit
		c.seqNext++
		c.robTail = (c.robTail + 1) % len(c.rob)
		c.robCount++
		c.Trace.enqueue(e.seq, e.pc, in, c.Cycle)

		if isLoad {
			for i := range c.ldq {
				if !c.ldq[i].valid {
					c.ldq[i].valid = true
					e.ldqIdx = i
					c.ldqFree--
					break
				}
			}
		}
		if isStore {
			for i := range c.stq {
				if !c.stq[i].valid {
					c.stq[i].valid = true
					e.stqIdx = i
					c.stqFree--
					break
				}
			}
		}

		// Fetch faults trap at commit with the faulting-fetch cause.
		if fe.fetchFault != isasim.CauseNone {
			e.exc = fe.fetchFault
			e.excTval = fe.pc
			e.state = stDone
			e.doneAt = c.Cycle + 1
			c.decodeBlocked = true
			continue
		}

		// Immediate-completion classes.
		switch in.Op {
		case isa.OpInvalid:
			if c.Cfg.IllegalAtDecode {
				// BOOM: decode raises the flush immediately; nothing younger
				// dispatches, so no transient window opens behind it.
				c.decodeBlocked = true
			}
			e.exc = isasim.CauseIllegalInstruction
			e.excTval = uint64(in.Raw)
			e.state = stDone
			e.doneAt = c.Cycle + 1
		case isa.OpLui:
			e.val = uint64(in.Imm)
			e.state = stDone
			e.doneAt = c.Cycle + 1
		case isa.OpAuipc:
			e.val = fe.pc + uint64(in.Imm)
			e.state = stDone
			e.doneAt = c.Cycle + 1
		case isa.OpJal:
			e.actTaken = true
			e.actTarget = fe.pc + uint64(in.Imm)
			e.val = fe.pc + 4
			e.isCtl = true
			e.state = stExecuting
			e.doneAt = c.Cycle + 1
		case isa.OpEcall, isa.OpEbreak, isa.OpMret, isa.OpFence,
			isa.OpCsrrw, isa.OpCsrrs, isa.OpCsrrc:
			e.state = stDone
			e.doneAt = c.Cycle + 1
		default:
			if in.Op.Class() == isa.ClassBranch || in.Op.Class() == isa.ClassJumpReg {
				e.isCtl = true
			}
		}
	}
}

// --- fetch -------------------------------------------------------------------

func (c *Core) fetchStage() {
	if c.Halted || c.decodeBlocked || c.fetchHeld {
		return
	}
	if c.fetchStallUntil > c.Cycle {
		return
	}
	if len(c.fetchQ)-c.fetchHead >= 2*c.Cfg.FetchWidth {
		return
	}
	// The queue is fully drained most cycles: rewind it so appends reuse
	// the buffer from the start instead of growing it for a whole run.
	if c.fetchHead == len(c.fetchQ) {
		c.fetchQ = c.fetchQ[:0]
		c.fetchHead = 0
	}
	// Fetch permission: an unfetchable pc raises a fetch fault via a pseudo
	// entry so the trap handler can recover. Append at most one.
	if err := c.Mem.Check(c.pc, 4, mem.AccessFetch); err != nil {
		if len(c.fetchQ) > c.fetchHead && c.fetchQ[len(c.fetchQ)-1].pc == c.pc {
			return
		}
		f := err.(*mem.Fault)
		c.fetchQ = append(c.fetchQ, fetchEntry{
			pc:         c.pc,
			inst:       isa.Inst{Op: isa.OpInvalid, Raw: 0},
			fetchFault: isasim.CauseForFault(f),
			rasSnap:    c.ras.Snapshot(),
		})
		return
	}

	itlbLat := c.ITLB.Lookup(c.pc)
	res := c.ICache.Access(c.pc, c.Cycle)
	if c.pcTaint != 0 {
		// Secret-selected fetch: the fill's presence is the encoding
		// (Spectre-Refetch / icache prime+probe receivers).
		c.ICache.TaintTag(res.Set, res.Way)
		c.ITLB.TaintPage(c.pc)
	}
	if !res.Hit || itlbLat > 0 {
		// The refill occupies the fetch port; with B4 semantics this
		// persists across squashes (set unconditionally — the bug is the
		// absence of cancellation).
		c.fetchStallUntil = c.Cycle + res.Latency + itlbLat
		if c.Cfg.Bugs.SpectreRefetch {
			c.BugWitness[WitnessSpectreRefetchMiss]++
		}
		return
	}

	for n := 0; n < c.Cfg.FetchWidth; n++ {
		if len(c.fetchQ)-c.fetchHead >= 2*c.Cfg.FetchWidth {
			return
		}
		if c.Mem.Check(c.pc, 4, mem.AccessFetch) != nil {
			return // next cycle raises the fetch fault path
		}
		w, _ := c.Mem.Read64(c.pc &^ 7)
		raw := uint32(w >> ((c.pc & 4) * 8))
		in := *c.decode.Decode(raw)
		fe := fetchEntry{pc: c.pc, inst: in}

		nextPC := c.pc + 4
		switch in.Op.Class() {
		case isa.ClassBranch:
			pred := c.bht.Predict(c.pc)
			if ov, taken := c.loop.Predict(c.pc); ov {
				pred = taken
			}
			if pred {
				if tgt, hit := c.predictTarget(c.pc); hit {
					fe.predTaken = true
					fe.predTarget = tgt
					nextPC = tgt
				}
			}
		case isa.ClassJump:
			fe.predTaken = true
			fe.predTarget = c.pc + uint64(in.Imm)
			nextPC = fe.predTarget
			if in.Rd == isa.RegRA {
				c.ras.Push(c.pc+4, 0)
			}
		case isa.ClassJumpReg:
			isRet := in.Rd == 0 && in.Rs1 == isa.RegRA && in.Imm == 0
			isCall := in.Rd == isa.RegRA
			switch {
			case isRet:
				tgt, tt := c.ras.Pop()
				fe.predTaken = true
				fe.predTarget = tgt
				fe.fromRAS = true
				nextPC = tgt
				_ = tt
			case isCall:
				c.ras.Push(c.pc+4, 0)
				if tgt, hit := c.ind.Predict(c.pc); hit {
					fe.predTaken = true
					fe.predTarget = tgt
					nextPC = tgt
				}
			default:
				if tgt, hit := c.ind.Predict(c.pc); hit {
					fe.predTaken = true
					fe.predTarget = tgt
					nextPC = tgt
				}
			}
		}
		fe.rasSnap = c.ras.Snapshot()
		c.fetchQ = append(c.fetchQ, fe)
		c.pc = nextPC
		if in.Op == isa.OpEcall || in.Op == isa.OpEbreak {
			// System instructions serialize the frontend: hold fetch until
			// the trap (or an older squash) redirects it.
			c.fetchHeld = true
			return
		}
		if in.Op == isa.OpInvalid {
			return // stop the fetch group; decode/commit handles the trap
		}
	}
}

// predictTarget queries the first-level then the main BTB.
func (c *Core) predictTarget(pc uint64) (uint64, bool) {
	if tgt, hit := c.faubtb.Predict(pc); hit {
		return tgt, true
	}
	return c.btb.Predict(pc)
}

// freeLDQ releases a load-queue slot.
func (c *Core) freeLDQ(i int) {
	c.releaseSlot(&c.ldq[i])
	c.ldqFree++
}

// freeSTQ releases a store-queue slot.
func (c *Core) freeSTQ(i int) {
	c.releaseSlot(&c.stq[i])
	c.stqFree++
}

// releaseSlot invalidates a load/store-queue slot; CellIFT shadow taint
// persists.
func (c *Core) releaseSlot(q *queueEntry) {
	q.valid = false
	if c.Mode != IFTCellIFT {
		c.setQueueTaint(q, 0)
	}
}

// writeArch retires a value into the architectural register file.
func (c *Core) writeArch(rd int, fp bool, v, t uint64) {
	if fp {
		c.regCensus.set(c.archFT[rd], t)
		c.archF[rd] = v
		c.archFT[rd] = t
		return
	}
	if rd != 0 {
		c.regCensus.set(c.archXT[rd], t)
		c.archX[rd] = v
		c.archXT[rd] = t
	}
}

// ArchReg reads an architectural register (testing and oracles).
func (c *Core) ArchReg(r int) (uint64, uint64) { return c.archX[r], c.archXT[r] }

// Run steps until halt or maxCycles. Only valid for IFTOff/IFTCellIFT cores;
// diff-mode pairs are driven by the harness.
func (c *Core) Run(maxCycles int) int {
	start := c.Cycle
	for !c.Halted && c.Cycle-start < maxCycles {
		c.Step()
		if c.Mode == IFTCellIFT {
			// CellIFT applies immediately inside ctl(); nothing pending.
			c.pendingCtl = c.pendingCtl[:0]
		}
	}
	return c.Cycle - start
}

// Sink is a tainted microarchitectural location considered as a potential
// leak sink, with its liveness verdict.
type Sink struct {
	Module string
	Detail string
	Live   bool
}

// Sinks enumerates tainted sinks with taint-liveness annotations applied:
// cache lines must be valid, LFB slots must have a live MSHR, RoB/LSU
// entries must still be valid; predictor state is always live.
func (c *Core) Sinks() []Sink {
	var out []Sink
	for _, lp := range c.DCache.TaintedLinePositions() {
		out = append(out, Sink{Module: "dcache", Detail: fmt.Sprintf("set%d.way%d", lp.Set, lp.Way), Live: true})
	}
	for _, lp := range c.ICache.TaintedLinePositions() {
		out = append(out, Sink{Module: "icache", Detail: fmt.Sprintf("set%d.way%d", lp.Set, lp.Way), Live: true})
	}
	if n, live := c.DCache.LFBCensus(c.Cycle); n > 0 {
		out = append(out, Sink{Module: "lfb", Detail: "line-fill-buffer", Live: live > 0})
	}
	if t, _ := c.DTLB.Census(); t > 0 {
		out = append(out, Sink{Module: "dtlb", Detail: "entry", Live: true})
	}
	if t, _ := c.L2TLB.Census(); t > 0 {
		out = append(out, Sink{Module: "l2tlb", Detail: "entry", Live: true})
	}
	if t, _ := c.btb.Census(); t > 0 {
		out = append(out, Sink{Module: "btb", Detail: "entry", Live: true})
	}
	if t, _ := c.faubtb.Census(); t > 0 {
		out = append(out, Sink{Module: "faubtb", Detail: "entry", Live: true})
	}
	if t, _ := c.ind.Census(); t > 0 {
		out = append(out, Sink{Module: "indbtb", Detail: "entry", Live: true})
	}
	if t, _ := c.ras.Census(); t > 0 {
		out = append(out, Sink{Module: "ras", Detail: "entry", Live: true})
	}
	if t, _ := c.loop.Census(); t > 0 {
		out = append(out, Sink{Module: "loop", Detail: "entry", Live: true})
	}
	if t, _ := c.bht.Census(); t > 0 {
		out = append(out, Sink{Module: "bht", Detail: "counter", Live: true})
	}
	// Dead-by-liveness sinks, reported for the no-liveness ablation:
	for i := range c.rob {
		if c.rob[i].valid && c.rob[i].taint != 0 {
			out = append(out, Sink{Module: "rob", Detail: "entry", Live: false})
			break
		}
	}
	for i := range c.archXT {
		if c.archXT[i] != 0 {
			out = append(out, Sink{Module: "regfile", Detail: isa.RegName(i), Live: false})
		}
	}
	return out
}

// --- taint helpers -----------------------------------------------------------

func cmpTaint(t1, t2 uint64) uint64 {
	return ift.CmpTaintCellIFT(t1, t2) // 1-bit data taint on the outcome
}

func addTaint(t1, t2 uint64) uint64 { return ift.AddTaint(t1, t2) }

// dataTaint applies per-op data-flow taint rules using the ift policies.
func dataTaint(in isa.Inst, v1, v2, t1, t2 uint64) uint64 {
	switch in.Op {
	case isa.OpAnd:
		return ift.AndTaint(v1, v2, t1, t2)
	case isa.OpAndi:
		return ift.AndTaint(v1, uint64(in.Imm), t1, 0)
	case isa.OpOr:
		return ift.OrTaint(v1, v2, t1, t2)
	case isa.OpOri:
		return ift.OrTaint(v1, uint64(in.Imm), t1, 0)
	case isa.OpXor:
		return ift.XorTaint(t1, t2)
	case isa.OpXori:
		return t1
	case isa.OpSlli, isa.OpSlliw:
		return t1 << uint(in.Imm&63)
	case isa.OpSrli, isa.OpSrliw, isa.OpSrai, isa.OpSraiw:
		return t1 >> uint(in.Imm&63)
	case isa.OpSll, isa.OpSllw:
		return ift.ShiftTaint(t1, v2, true, t2 != 0, true, ^uint64(0))
	case isa.OpSrl, isa.OpSrlw, isa.OpSra, isa.OpSraw:
		return ift.ShiftTaint(t1, v2, false, t2 != 0, true, ^uint64(0))
	case isa.OpSlt, isa.OpSltu:
		return ift.CmpTaintCellIFT(t1, t2)
	case isa.OpSlti, isa.OpSltiu:
		return ift.CmpTaintCellIFT(t1, 0)
	case isa.OpAddi, isa.OpAddiw:
		return ift.AddTaint(t1, 0)
	default:
		// Arithmetic: conservative carry spread.
		return ift.AddTaint(t1, t2)
	}
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
