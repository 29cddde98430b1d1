// Package isasim is the architectural (ISA-level) golden model. The stimulus
// generator executes candidate programs on it to derive trigger operands
// (branch outcomes, memory addresses, return targets), and the test suite
// uses it to co-verify the out-of-order core's committed state.
package isasim

import (
	"fmt"
	"math"
	"math/bits"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
)

// Cause enumerates trap causes, mirroring the RISC-V mcause encoding for the
// subset the fuzzer exercises.
type Cause int

const (
	CauseNone Cause = iota
	CauseIllegalInstruction
	CauseLoadAccessFault
	CauseStoreAccessFault
	CauseLoadPageFault
	CauseStorePageFault
	CauseLoadMisalign
	CauseStoreMisalign
	CauseFetchAccessFault
	CauseFetchPageFault
	CauseEnvCall
	CauseBreakpoint
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseIllegalInstruction:
		return "illegal-instruction"
	case CauseLoadAccessFault:
		return "load-access-fault"
	case CauseStoreAccessFault:
		return "store-access-fault"
	case CauseLoadPageFault:
		return "load-page-fault"
	case CauseStorePageFault:
		return "store-page-fault"
	case CauseLoadMisalign:
		return "load-misalign"
	case CauseStoreMisalign:
		return "store-misalign"
	case CauseFetchAccessFault:
		return "fetch-access-fault"
	case CauseFetchPageFault:
		return "fetch-page-fault"
	case CauseEnvCall:
		return "ecall"
	case CauseBreakpoint:
		return "ebreak"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Trap describes an architectural trap.
type Trap struct {
	Cause Cause
	EPC   uint64 // pc of the trapping instruction
	Tval  uint64 // faulting address or raw instruction
}

func (t Trap) String() string {
	return fmt.Sprintf("%v at %#x (tval %#x)", t.Cause, t.EPC, t.Tval)
}

// TrapAction tells the simulator how to continue after a trap.
type TrapAction struct {
	NewPC uint64
	Halt  bool
}

// Sim is the architectural simulator state.
type Sim struct {
	Mem *mem.Space
	PC  uint64
	X   [32]uint64 // integer registers
	F   [32]uint64 // fp registers (raw IEEE-754 bits)

	Halted bool
	// TrapHook decides what to do on a trap. Nil means halt on any trap.
	TrapHook func(Trap) TrapAction
	// Instret counts retired instructions.
	Instret uint64
	// LastTrap records the most recent trap, if any.
	LastTrap *Trap

	// decCache memoises instruction decoding (a pure function of the raw
	// word): stimulus programs loop over a handful of distinct words, so a
	// small direct-mapped cache removes most decode work. Entries survive
	// Reset — the cache can never change results, only skip recomputation.
	decCache [64]decEntry
}

type decEntry struct {
	raw uint32
	in  isa.Inst
	ok  bool
}

// New returns a simulator over the given space starting at entry.
func New(space *mem.Space, entry uint64) *Sim {
	s := &Sim{}
	s.Reset(space, entry)
	return s
}

// Reset reinitialises the simulator in place over a (possibly reset) space:
// registers zeroed, counters cleared, hook detached. After Reset the
// simulator is indistinguishable from New(space, entry) — the property the
// per-shard execution contexts in internal/isadiff rely on.
func (s *Sim) Reset(space *mem.Space, entry uint64) {
	s.Mem = space
	s.PC = entry
	s.X = [32]uint64{}
	s.F = [32]uint64{}
	s.Halted = false
	s.TrapHook = nil
	s.Instret = 0
	s.LastTrap = nil
}

// CauseForFault converts a memory fault into a trap cause.
func CauseForFault(f *mem.Fault) Cause {
	switch f.Kind {
	case mem.AccessLoad:
		if f.Page {
			return CauseLoadPageFault
		}
		return CauseLoadAccessFault
	case mem.AccessStore:
		if f.Page {
			return CauseStorePageFault
		}
		return CauseStoreAccessFault
	default:
		if f.Page {
			return CauseFetchPageFault
		}
		return CauseFetchAccessFault
	}
}

func (s *Sim) trap(t Trap) {
	tt := t
	s.LastTrap = &tt
	if s.TrapHook == nil {
		s.Halted = true
		return
	}
	act := s.TrapHook(t)
	if act.Halt {
		s.Halted = true
		return
	}
	s.PC = act.NewPC
}

// Step executes one instruction. It returns false once halted.
func (s *Sim) Step() bool {
	if s.Halted {
		return false
	}
	if err := s.Mem.Check(s.PC, 4, mem.AccessFetch); err != nil {
		f := err.(*mem.Fault)
		s.trap(Trap{Cause: CauseForFault(f), EPC: s.PC, Tval: s.PC})
		return !s.Halted
	}
	raw := s.Mem.Read32(s.PC)
	e := &s.decCache[(raw*2654435761)>>26]
	if !e.ok || e.raw != raw {
		e.raw, e.in, e.ok = raw, isa.Decode(raw), true
	}
	in := e.in
	s.Exec(in)
	return !s.Halted
}

// Run executes until halt or the instruction budget is exhausted.
// It returns the number of instructions retired.
func (s *Sim) Run(max int) int {
	n := 0
	for n < max && s.Step() {
		n++
	}
	return n
}

// MemAddr computes the effective address of a load/store without executing it.
func (s *Sim) MemAddr(in isa.Inst) uint64 {
	return s.X[in.Rs1] + uint64(in.Imm)
}

// Exec executes a single decoded instruction at the current PC, updating
// PC, registers, memory and trap state.
func (s *Sim) Exec(in isa.Inst) {
	pc := s.PC
	next := pc + 4
	x := &s.X
	wr := func(rd int, v uint64) {
		if rd != 0 {
			x[rd] = v
		}
	}
	switch in.Op {
	case isa.OpInvalid:
		s.trap(Trap{Cause: CauseIllegalInstruction, EPC: pc, Tval: uint64(in.Raw)})
		return
	case isa.OpLui:
		wr(in.Rd, uint64(in.Imm))
	case isa.OpAuipc:
		wr(in.Rd, pc+uint64(in.Imm))
	case isa.OpJal:
		wr(in.Rd, next)
		next = pc + uint64(in.Imm)
	case isa.OpJalr:
		t := (x[in.Rs1] + uint64(in.Imm)) &^ 1
		wr(in.Rd, next)
		next = t
	case isa.OpBeq:
		if x[in.Rs1] == x[in.Rs2] {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBne:
		if x[in.Rs1] != x[in.Rs2] {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBlt:
		if int64(x[in.Rs1]) < int64(x[in.Rs2]) {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBge:
		if int64(x[in.Rs1]) >= int64(x[in.Rs2]) {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBltu:
		if x[in.Rs1] < x[in.Rs2] {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBgeu:
		if x[in.Rs1] >= x[in.Rs2] {
			next = pc + uint64(in.Imm)
		}
	case isa.OpLb, isa.OpLh, isa.OpLw, isa.OpLd, isa.OpLbu, isa.OpLhu, isa.OpLwu, isa.OpFld:
		addr := s.MemAddr(in)
		size := in.Op.MemSize()
		if addr%uint64(size) != 0 {
			s.trap(Trap{Cause: CauseLoadMisalign, EPC: pc, Tval: addr})
			return
		}
		v, _, err := s.Mem.Read(addr, size, mem.AccessLoad)
		if err != nil {
			f := err.(*mem.Fault)
			s.trap(Trap{Cause: CauseForFault(f), EPC: pc, Tval: addr})
			return
		}
		switch in.Op {
		case isa.OpLb:
			v = uint64(int64(int8(v)))
		case isa.OpLh:
			v = uint64(int64(int16(v)))
		case isa.OpLw:
			v = uint64(int64(int32(v)))
		}
		if in.Op == isa.OpFld {
			s.F[in.Rd] = v
		} else {
			wr(in.Rd, v)
		}
	case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd, isa.OpFsd:
		addr := s.MemAddr(in)
		size := in.Op.MemSize()
		if addr%uint64(size) != 0 {
			s.trap(Trap{Cause: CauseStoreMisalign, EPC: pc, Tval: addr})
			return
		}
		v := x[in.Rs2]
		if in.Op == isa.OpFsd {
			v = s.F[in.Rs2]
		}
		if err := s.Mem.Write(addr, size, v, 0, mem.AccessStore); err != nil {
			f := err.(*mem.Fault)
			s.trap(Trap{Cause: CauseForFault(f), EPC: pc, Tval: addr})
			return
		}
	case isa.OpAddi:
		wr(in.Rd, x[in.Rs1]+uint64(in.Imm))
	case isa.OpSlti:
		wr(in.Rd, b2u(int64(x[in.Rs1]) < in.Imm))
	case isa.OpSltiu:
		wr(in.Rd, b2u(x[in.Rs1] < uint64(in.Imm)))
	case isa.OpXori:
		wr(in.Rd, x[in.Rs1]^uint64(in.Imm))
	case isa.OpOri:
		wr(in.Rd, x[in.Rs1]|uint64(in.Imm))
	case isa.OpAndi:
		wr(in.Rd, x[in.Rs1]&uint64(in.Imm))
	case isa.OpSlli:
		wr(in.Rd, x[in.Rs1]<<uint(in.Imm&63))
	case isa.OpSrli:
		wr(in.Rd, x[in.Rs1]>>uint(in.Imm&63))
	case isa.OpSrai:
		wr(in.Rd, uint64(int64(x[in.Rs1])>>uint(in.Imm&63)))
	case isa.OpAddiw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])+uint32(in.Imm)))
	case isa.OpSlliw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])<<uint(in.Imm&31)))
	case isa.OpSrliw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])>>uint(in.Imm&31)))
	case isa.OpSraiw:
		wr(in.Rd, uint64(int64(int32(x[in.Rs1])>>uint(in.Imm&31))))
	case isa.OpAdd:
		wr(in.Rd, x[in.Rs1]+x[in.Rs2])
	case isa.OpSub:
		wr(in.Rd, x[in.Rs1]-x[in.Rs2])
	case isa.OpSll:
		wr(in.Rd, x[in.Rs1]<<(x[in.Rs2]&63))
	case isa.OpSlt:
		wr(in.Rd, b2u(int64(x[in.Rs1]) < int64(x[in.Rs2])))
	case isa.OpSltu:
		wr(in.Rd, b2u(x[in.Rs1] < x[in.Rs2]))
	case isa.OpXor:
		wr(in.Rd, x[in.Rs1]^x[in.Rs2])
	case isa.OpSrl:
		wr(in.Rd, x[in.Rs1]>>(x[in.Rs2]&63))
	case isa.OpSra:
		wr(in.Rd, uint64(int64(x[in.Rs1])>>(x[in.Rs2]&63)))
	case isa.OpOr:
		wr(in.Rd, x[in.Rs1]|x[in.Rs2])
	case isa.OpAnd:
		wr(in.Rd, x[in.Rs1]&x[in.Rs2])
	case isa.OpAddw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])+uint32(x[in.Rs2])))
	case isa.OpSubw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])-uint32(x[in.Rs2])))
	case isa.OpSllw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])<<(x[in.Rs2]&31)))
	case isa.OpSrlw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])>>(x[in.Rs2]&31)))
	case isa.OpSraw:
		wr(in.Rd, uint64(int64(int32(x[in.Rs1])>>(x[in.Rs2]&31))))
	case isa.OpMul:
		wr(in.Rd, x[in.Rs1]*x[in.Rs2])
	case isa.OpMulh:
		hi, _ := bits.Mul64(absU(x[in.Rs1]), absU(x[in.Rs2]))
		_ = hi
		wr(in.Rd, mulh(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case isa.OpMulhsu:
		wr(in.Rd, mulhsu(int64(x[in.Rs1]), x[in.Rs2]))
	case isa.OpMulhu:
		hi, _ := bits.Mul64(x[in.Rs1], x[in.Rs2])
		wr(in.Rd, hi)
	case isa.OpDiv:
		wr(in.Rd, divS(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case isa.OpDivu:
		wr(in.Rd, divU(x[in.Rs1], x[in.Rs2]))
	case isa.OpRem:
		wr(in.Rd, remS(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case isa.OpRemu:
		wr(in.Rd, remU(x[in.Rs1], x[in.Rs2]))
	case isa.OpMulw:
		wr(in.Rd, sext32(uint32(x[in.Rs1])*uint32(x[in.Rs2])))
	case isa.OpDivw:
		wr(in.Rd, sext32(uint32(divS(int64(int32(x[in.Rs1])), int64(int32(x[in.Rs2]))))))
	case isa.OpDivuw:
		wr(in.Rd, sext32(uint32(divU(uint64(uint32(x[in.Rs1])), uint64(uint32(x[in.Rs2]))))))
	case isa.OpRemw:
		wr(in.Rd, sext32(uint32(remS(int64(int32(x[in.Rs1])), int64(int32(x[in.Rs2]))))))
	case isa.OpRemuw:
		wr(in.Rd, sext32(uint32(remU(uint64(uint32(x[in.Rs1])), uint64(uint32(x[in.Rs2]))))))
	case isa.OpFaddD:
		s.F[in.Rd] = f64op(s.F[in.Rs1], s.F[in.Rs2], '+')
	case isa.OpFsubD:
		s.F[in.Rd] = f64op(s.F[in.Rs1], s.F[in.Rs2], '-')
	case isa.OpFmulD:
		s.F[in.Rd] = f64op(s.F[in.Rs1], s.F[in.Rs2], '*')
	case isa.OpFdivD:
		s.F[in.Rd] = f64op(s.F[in.Rs1], s.F[in.Rs2], '/')
	case isa.OpFmvXD:
		wr(in.Rd, s.F[in.Rs1])
	case isa.OpFmvDX:
		s.F[in.Rd] = x[in.Rs1]
	case isa.OpFence:
		// no-op
	case isa.OpEcall:
		s.trap(Trap{Cause: CauseEnvCall, EPC: pc})
		return
	case isa.OpEbreak:
		s.trap(Trap{Cause: CauseBreakpoint, EPC: pc})
		return
	case isa.OpMret:
		// The testbench-level runtime owns trap state; mret is a no-op here.
	case isa.OpCsrrw, isa.OpCsrrs, isa.OpCsrrc:
		// CSR file not modelled architecturally; reads return zero.
		wr(in.Rd, 0)
	default:
		s.trap(Trap{Cause: CauseIllegalInstruction, EPC: pc, Tval: uint64(in.Raw)})
		return
	}
	s.Instret++
	s.PC = next
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func absU(v uint64) uint64 {
	if int64(v) < 0 {
		return uint64(-int64(v))
	}
	return v
}

func mulh(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU(uint64(a)), absU(uint64(b)))
	if neg {
		// negate 128-bit (hi,lo)
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	neg := a < 0
	hi, lo := bits.Mul64(absU(uint64(a)), b)
	if neg {
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func divS(a, b int64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	if a == math.MinInt64 && b == -1 {
		return uint64(a)
	}
	return uint64(a / b)
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	if b == 0 {
		return uint64(a)
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return uint64(a % b)
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func f64op(a, b uint64, op byte) uint64 {
	fa := math.Float64frombits(a)
	fb := math.Float64frombits(b)
	var r float64
	switch op {
	case '+':
		r = fa + fb
	case '-':
		r = fa - fb
	case '*':
		r = fa * fb
	case '/':
		r = fa / fb
	}
	return math.Float64bits(r)
}
