package ift

import (
	"fmt"
	"math/bits"
	"sort"

	"dejavuzz/internal/rtl"
)

// Mode selects the taint propagation discipline.
type Mode int

const (
	// ModeCellIFT propagates control taints unconditionally (Policy 2),
	// reproducing CellIFT's control-flow over-tainting.
	ModeCellIFT Mode = iota
	// ModeDiff gates control taints on cross-instance differences (Table 1).
	ModeDiff
)

func (m Mode) String() string {
	if m == ModeDiff {
		return "diffIFT"
	}
	return "CellIFT"
}

// LivenessAttr is the register/memory attribute binding state registers to
// taint registers, as written by developers in the DUT source
// (the paper's `(* liveness_mask = "signal" *)` annotation).
const LivenessAttr = "liveness_mask"

// Shadow is an instrumented simulator instance: the original design's values
// plus a parallel taint state evaluated with the selected policy set.
type Shadow struct {
	Sim  *rtl.Sim
	Mode Mode

	SigT []uint64   // signal taints
	RegT []uint64   // register taints
	MemT [][]uint64 // memory taints

	// liveness[i] is the signal whose bits gate the liveness of register i
	// (bit 0) — filled in during instrumentation from LivenessAttr.
	regLive []rtl.SignalID
	memLive []rtl.SignalID

	peer *Shadow // set by NewPair for ModeDiff
}

// Instrument builds a shadow instance for the design. This is the "compile"
// step whose duration the Table 4 experiment measures: it resolves liveness
// annotations and pre-computes the per-cell propagation plan.
func Instrument(d *rtl.Design, mode Mode) (*Shadow, error) {
	s := &Shadow{
		Sim:  rtl.NewSim(d),
		Mode: mode,
		SigT: make([]uint64, len(d.Signals)),
		RegT: make([]uint64, len(d.Regs)),
	}
	s.MemT = make([][]uint64, len(d.Mems))
	for i, m := range d.Mems {
		s.MemT[i] = make([]uint64, m.Depth)
	}

	// Resolve liveness annotations by signal name.
	byName := make(map[string]rtl.SignalID, len(d.Signals))
	for i, sg := range d.Signals {
		byName[sg.Name] = rtl.SignalID(i)
	}
	s.regLive = make([]rtl.SignalID, len(d.Regs))
	for i, r := range d.Regs {
		s.regLive[i] = rtl.Invalid
		if name, ok := r.Attrs[LivenessAttr]; ok {
			sig, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("ift: register %q: liveness signal %q not found", r.Name, name)
			}
			s.regLive[i] = sig
		}
	}
	s.memLive = make([]rtl.SignalID, len(d.Mems))
	for i, m := range d.Mems {
		s.memLive[i] = rtl.Invalid
		if name, ok := m.Attrs[LivenessAttr]; ok {
			sig, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("ift: memory %q: liveness signal %q not found", m.Name, name)
			}
			s.memLive[i] = sig
		}
	}
	return s, nil
}

// MustInstrument panics on annotation errors.
func MustInstrument(d *rtl.Design, mode Mode) *Shadow {
	s, err := Instrument(d, mode)
	if err != nil {
		panic(err)
	}
	return s
}

// Poke drives an input with a value and taint.
func (s *Shadow) Poke(sig rtl.SignalID, v, t uint64) {
	s.Sim.Poke(sig, v)
	s.SigT[sig] = t & s.Sim.D.Mask(sig)
}

// Peek returns a signal's value and taint.
func (s *Shadow) Peek(sig rtl.SignalID) (v, t uint64) {
	return s.Sim.Peek(sig), s.SigT[sig]
}

// diffOf returns whether a signal's value differs from the peer instance.
// Outside ModeDiff (or without a peer) control gating degenerates to CellIFT.
func (s *Shadow) diffOf(sig rtl.SignalID) bool {
	if s.Mode != ModeDiff || s.peer == nil {
		return true
	}
	return s.Sim.Peek(sig) != s.peer.Sim.Peek(sig)
}

// evalTaints propagates taints through every cell, in cell order. Values must
// already be evaluated (and, in ModeDiff, on both instances).
func (s *Shadow) evalTaints() {
	d := s.Sim.D
	v := s.Sim.Vals
	t := s.SigT
	regIdx := 0
	_ = regIdx
	// Present register taints on their Q signals.
	for i, r := range d.Regs {
		t[r.Q] = s.RegT[i]
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		mask := d.Mask(c.Out)
		switch c.Kind {
		case rtl.CellBufIn:
			// poked taint persists
		case rtl.CellConst:
			t[c.Out] = 0
		case rtl.CellNot:
			t[c.Out] = NotTaint(t[c.In[0]]) & mask
		case rtl.CellAnd:
			t[c.Out] = AndTaint(v[c.In[0]], v[c.In[1]], t[c.In[0]], t[c.In[1]]) & mask
		case rtl.CellOr:
			t[c.Out] = OrTaint(v[c.In[0]], v[c.In[1]], t[c.In[0]], t[c.In[1]]) & mask
		case rtl.CellXor:
			t[c.Out] = XorTaint(t[c.In[0]], t[c.In[1]]) & mask
		case rtl.CellAdd, rtl.CellSub:
			t[c.Out] = AddTaint(t[c.In[0]], t[c.In[1]]) & mask
		case rtl.CellEq, rtl.CellNe, rtl.CellLt:
			if s.Mode == ModeDiff {
				outDiff := s.diffOf(c.Out)
				t[c.Out] = CmpTaintDiff(outDiff, t[c.In[0]], t[c.In[1]])
			} else {
				t[c.Out] = CmpTaintCellIFT(t[c.In[0]], t[c.In[1]])
			}
		case rtl.CellShl:
			t[c.Out] = ShiftTaint(t[c.In[0]], v[c.In[1]], true, t[c.In[1]] != 0, s.diffOf(c.In[1]), mask)
		case rtl.CellShr:
			t[c.Out] = ShiftTaint(t[c.In[0]], v[c.In[1]], false, t[c.In[1]] != 0, s.diffOf(c.In[1]), mask)
		case rtl.CellMux:
			sel, a, b := c.In[0], c.In[1], c.In[2]
			if s.Mode == ModeDiff {
				t[c.Out] = MuxTaintDiff(v[sel], t[sel] != 0, s.diffOf(sel), v[a], v[b], t[a], t[b]) & mask
			} else {
				t[c.Out] = MuxTaintCellIFT(v[sel], t[sel] != 0, v[a], v[b], t[a], t[b]) & mask
			}
		case rtl.CellConcat:
			lo := c.In[1]
			t[c.Out] = (t[c.In[0]]<<uint(d.Width(lo)) | t[lo]) & mask
		case rtl.CellSlice:
			t[c.Out] = t[c.In[0]] >> uint(c.Lo) & mask
		case rtl.CellRedOr:
			if t[c.In[0]] != 0 {
				t[c.Out] = 1
			} else {
				t[c.Out] = 0
			}
		case rtl.CellMemRd:
			addr := v[c.In[0]] % uint64(len(s.MemT[c.Mem]))
			addrCtl := t[c.In[0]] != 0
			if s.Mode == ModeDiff {
				addrCtl = addrCtl && s.diffOf(c.In[0])
			}
			t[c.Out] = MemReadTaint(s.MemT[c.Mem][addr], addrCtl, mask)
		}
	}
}

// clockTaints commits register and memory taints (the shadow of rtl.Sim.Clock).
func (s *Shadow) clockTaints() {
	d := s.Sim.D
	v := s.Sim.Vals
	t := s.SigT
	next := make([]uint64, len(s.RegT))
	for i, r := range d.Regs {
		mask := rtl.WidthMask(r.Width)
		if r.D == rtl.Invalid {
			next[i] = s.RegT[i]
			continue
		}
		if r.En == rtl.Invalid {
			next[i] = t[r.D] & mask
			continue
		}
		en := v[r.En]
		enT := t[r.En] != 0
		q := s.Sim.RegV[i]
		if s.Mode == ModeDiff {
			next[i] = RegEnTaintDiff(en, enT, s.diffOf(r.En), v[r.D], q, t[r.D], s.RegT[i]) & mask
		} else {
			next[i] = RegEnTaintCellIFT(en, enT, v[r.D], q, t[r.D], s.RegT[i]) & mask
		}
	}
	copy(s.RegT, next)

	for mi, m := range d.Mems {
		mask := rtl.WidthMask(m.Width)
		for _, w := range m.Writes {
			wen := v[w.En]
			wenCtl := t[w.En] != 0
			addrCtl := t[w.Addr] != 0
			if s.Mode == ModeDiff {
				wenCtl = wenCtl && s.diffOf(w.En)
				addrCtl = addrCtl && s.diffOf(w.Addr)
			}
			addr := v[w.Addr] % uint64(m.Depth)
			s.MemT[mi][addr] = MemWriteTaint(wen, t[w.Data], s.MemT[mi][addr], wenCtl, addrCtl, mask)
		}
	}
}

// Step runs one cycle of a standalone (CellIFT-mode) shadow instance.
func (s *Shadow) Step() {
	s.Sim.Eval()
	s.evalTaints()
	s.clockTaints()
	s.Sim.Clock()
}

// TaintSum returns the total number of tainted state bits (registers plus
// memories) — the y-axis of the paper's Figure 6.
func (s *Shadow) TaintSum() int {
	n := 0
	for _, t := range s.RegT {
		n += bits.OnesCount64(t)
	}
	for _, mt := range s.MemT {
		for _, t := range mt {
			n += bits.OnesCount64(t)
		}
	}
	return n
}

// ModuleTaintCounts returns, per module path, the number of tainted state
// elements (registers / memory entries with any taint bit set).
func (s *Shadow) ModuleTaintCounts() map[string]int {
	out := make(map[string]int)
	d := s.Sim.D
	for i, r := range d.Regs {
		if s.RegT[i] != 0 {
			out[r.Module]++
		}
	}
	for mi, m := range d.Mems {
		for _, t := range s.MemT[mi] {
			if t != 0 {
				out[m.Module]++
			}
		}
	}
	return out
}

// LiveTaintedSinks returns the names of registers/memory entries that are
// tainted AND whose liveness annotation says the slot currently holds live
// data. Unannotated state is reported as live (the paper treats register
// arrays as potential sinks by default).
func (s *Shadow) LiveTaintedSinks() []string {
	var out []string
	d := s.Sim.D
	for i, r := range d.Regs {
		if s.RegT[i] == 0 {
			continue
		}
		if sig := s.regLive[i]; sig != rtl.Invalid {
			if s.Sim.Peek(sig)&1 == 0 {
				continue // dead: MSHR-style stale data, not exploitable
			}
		}
		out = append(out, r.Module+"."+r.Name)
	}
	for mi, m := range d.Mems {
		liveVec := ^uint64(0)
		if sig := s.memLive[mi]; sig != rtl.Invalid {
			liveVec = s.Sim.Peek(sig)
		}
		for e, t := range s.MemT[mi] {
			if t == 0 {
				continue
			}
			if e < 64 && liveVec>>uint(e)&1 == 0 {
				continue
			}
			out = append(out, fmt.Sprintf("%s.%s[%d]", m.Module, m.Name, e))
		}
	}
	sort.Strings(out)
	return out
}

// Pair couples two shadow instances for differential information flow
// tracking: the same design simulated with different secrets, with control
// taints gated on cross-instance signal differences.
type Pair struct {
	A, B *Shadow
}

// NewPair instruments the design twice in ModeDiff and couples the instances.
func NewPair(d *rtl.Design) (*Pair, error) {
	a, err := Instrument(d, ModeDiff)
	if err != nil {
		return nil, err
	}
	b, err := Instrument(d, ModeDiff)
	if err != nil {
		return nil, err
	}
	a.peer, b.peer = b, a
	return &Pair{A: a, B: b}, nil
}

// Step advances both instances one cycle: values first (so cross-instance
// diff signals are observable), then taints, then the clock edge.
func (p *Pair) Step() {
	p.A.Sim.Eval()
	p.B.Sim.Eval()
	p.A.evalTaints()
	p.B.evalTaints()
	p.A.clockTaints()
	p.B.clockTaints()
	p.A.Sim.Clock()
	p.B.Sim.Clock()
}
