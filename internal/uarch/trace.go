package uarch

import (
	"fmt"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
)

// InstRecord is one dynamic instruction's RoB IO trace: when it entered the
// reorder buffer and whether it committed or was squashed. The fuzzer's
// transient-window detection ("enqueued exceeds committed") reads this log.
type InstRecord struct {
	Seq         uint64
	PC          uint64
	Inst        isa.Inst
	EnqCycle    int
	CommitCycle int // -1 if never committed
	SquashCycle int // -1 if never squashed
	Exception   isasim.Cause
}

// Transient reports whether the instruction executed transiently (entered
// the RoB but was squashed instead of committing).
func (r *InstRecord) Transient() bool {
	return r.CommitCycle < 0 && r.SquashCycle >= 0
}

// SquashReason classifies why a squash happened.
type SquashReason int

const (
	SquashNone SquashReason = iota
	SquashBranchMispredict
	SquashJumpMispredict
	SquashReturnMispredict
	SquashMemOrdering
	SquashException
)

func (r SquashReason) String() string {
	switch r {
	case SquashBranchMispredict:
		return "branch-mispredict"
	case SquashJumpMispredict:
		return "jump-mispredict"
	case SquashReturnMispredict:
		return "return-mispredict"
	case SquashMemOrdering:
		return "memory-ordering"
	case SquashException:
		return "exception"
	}
	return "none"
}

// Mispredict reports whether the squash corrects a control-flow prediction
// (branch, jump or return): the squashes that can carry PredTaken.
func (r SquashReason) Mispredict() bool {
	return r == SquashBranchMispredict || r == SquashJumpMispredict || r == SquashReturnMispredict
}

// SquashEvent records one pipeline flush.
type SquashEvent struct {
	Cycle    int
	Reason   SquashReason
	FromSeq  uint64 // oldest squashed sequence number
	AtPC     uint64 // pc of the instruction causing the squash
	Redirect uint64
	// PredTaken marks misprediction squashes whose wrong path came from an
	// actual predictor redirect (trained state), as opposed to default
	// fall-through execution that needs no training.
	PredTaken bool
}

// TaintSample is one cycle's per-module taint census entry.
type TaintSample struct {
	Cycle   int
	Module  string
	Tainted int // state elements with any tainted bit
	Bits    int // total tainted bits
}

// Trace accumulates the RoB IO event log and (optionally) the taint log.
// Sequence numbers index Insts directly: every run numbers from 0 (a
// pristine image's), and dispatch enqueues each number once, in order.
type Trace struct {
	Insts    []InstRecord
	Squashes []SquashEvent
	// TaintLog holds per-cycle module censuses when taint tracing is on.
	TaintLog []TaintSample
	// TaintSumByCycle is the Figure 6 series: total tainted state bits.
	TaintSumByCycle []int
}

// copyFrom replaces t's records with a copy of src's, keeping slice
// capacity.
func (t *Trace) copyFrom(src *Trace) {
	t.Insts = reuse(t.Insts, src.Insts)
	t.Squashes = reuse(t.Squashes, src.Squashes)
	t.TaintLog = reuse(t.TaintLog, src.TaintLog)
	t.TaintSumByCycle = reuse(t.TaintSumByCycle, src.TaintSumByCycle)
}

// enqueue appends seq's record; seq must be the next index.
func (t *Trace) enqueue(seq, pc uint64, in isa.Inst, cycle int) {
	if seq != uint64(len(t.Insts)) {
		panic(fmt.Sprintf("uarch: trace enqueues seq %d at index %d", seq, len(t.Insts)))
	}
	// Filled in place: a composite literal would be built aside and copied.
	t.Insts = append(t.Insts, InstRecord{})
	r := &t.Insts[seq]
	r.Seq, r.PC, r.Inst, r.EnqCycle = seq, pc, in, cycle
	r.CommitCycle, r.SquashCycle = -1, -1
}

func (t *Trace) commit(seq uint64, cycle int, exc isasim.Cause) {
	r := &t.Insts[seq]
	r.CommitCycle = cycle
	r.Exception = exc
}

func (t *Trace) squash(seq uint64, cycle int) {
	if r := &t.Insts[seq]; r.CommitCycle < 0 {
		r.SquashCycle = cycle
	}
}

// WindowStats summarises transient execution within a PC range.
type WindowStats struct {
	Enqueued   int
	Committed  int
	Squashed   int
	FirstCycle int // first enqueue cycle of a window instruction, -1 if none
	LastCycle  int // last squash/commit cycle of a window instruction
}

// Triggered reports the paper's transient-window criterion: more window
// instructions entered the RoB than committed.
func (w WindowStats) Triggered() bool { return w.Enqueued > w.Committed && w.Squashed > 0 }

// Window analyses the trace for instructions whose PC lies in [lo, hi).
func (t *Trace) Window(lo, hi uint64) WindowStats { return t.WindowSince(lo, hi, 0) }

// WindowSince restricts the analysis to instructions enqueued at or after
// the given cycle (the transient packet's load time, so that training-packet
// activity at the same addresses is excluded).
func (t *Trace) WindowSince(lo, hi uint64, since int) WindowStats {
	w := WindowStats{FirstCycle: -1, LastCycle: -1}
	for i := range t.Insts {
		r := &t.Insts[i]
		if r.PC < lo || r.PC >= hi || r.EnqCycle < since {
			continue
		}
		w.Enqueued++
		if w.FirstCycle < 0 || r.EnqCycle < w.FirstCycle {
			w.FirstCycle = r.EnqCycle
		}
		end := r.CommitCycle
		if r.CommitCycle >= 0 {
			w.Committed++
		}
		if r.SquashCycle >= 0 {
			w.Squashed++
			end = r.SquashCycle
		}
		if end > w.LastCycle {
			w.LastCycle = end
		}
	}
	return w
}

// String renders a compact trace summary.
func (t *Trace) String() string {
	committed, squashed := 0, 0
	for i := range t.Insts {
		if t.Insts[i].CommitCycle >= 0 {
			committed++
		}
		if t.Insts[i].SquashCycle >= 0 {
			squashed++
		}
	}
	return fmt.Sprintf("trace{insts=%d committed=%d squashed=%d flushes=%d}",
		len(t.Insts), committed, squashed, len(t.Squashes))
}
